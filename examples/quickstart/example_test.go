package main

// Example runs the program; go test checks every line it prints.
func Example() {
	main()
	// Output:
	// call  0: "hello rfp 0" -> "0 pfr olleh"  (3.17 us)
	// call  1: "hello rfp 1" -> "1 pfr olleh"  (3.13 us)
	// call  2: "hello rfp 2" -> "2 pfr olleh"  (3.16 us)
	// call  3: "hello rfp 3" -> "3 pfr olleh"  (3.14 us)
	// call  4: "hello rfp 4" -> "4 pfr olleh"  (3.18 us)
	// call  5: "hello rfp 5" -> "5 pfr olleh"  (3.16 us)
	// call  6: "hello rfp 6" -> "6 pfr olleh"  (3.18 us)
	// call  7: "hello rfp 7" -> "7 pfr olleh"  (3.15 us)
	// call  8: "hello rfp 8" -> "8 pfr olleh"  (3.16 us)
	// call  9: "hello rfp 9" -> "9 pfr olleh"  (3.18 us)
	//
	// transport: 10 calls, 10 remote fetches (1.00 per call), mode fetch
	// server NIC: issued 0 out-bound ops for 10 responses — all fetched by the client
}
