package main

// Example runs the program; go test checks every line it prints.
func Example() {
	main()
	// Output:
	// hardware bounds: R in [1,2], F in [256,1024]
	// pre-run with defaults (F=256): 3.75 MOPS, 4096 samples collected
	// selected parameters: R=2 F=448
	// tuned run: 5.41 MOPS (144% vs default)
	// mis-set F=4096: 1.11 MOPS (21% vs tuned)
}
