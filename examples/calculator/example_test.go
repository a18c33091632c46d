package main

// Example runs the program; go test checks every line it prints.
func Example() {
	main()
	// Output:
	// Arith: 7*8=56
	// Arith: 17/5=3 remainder 2
	// Arith: remote error surfaced correctly: "divide by zero"
	//
	// transport: 3 calls over RFP, 3 remote fetches, mode fetch
}
