package main

// Example runs the program; go test checks every line it prints.
func Example() {
	main()
	// Output:
	// client 0: first replicated PUT acked in 8.18 us
	// client 1: first replicated PUT acked in 13.27 us
	// committed 400 writes; follower copies missing: 0
	// local reads 269, leader reads 131, max serve age 1.87 us
	// stores: 400 / 400 / 400 keys
}
