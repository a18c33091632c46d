package main

// Example runs the program; go test checks every line it prints.
func Example() {
	main()
	// Output:
	// cache throughput : 5.60 MOPS (35 client threads, 95% GET)
	// requests served  : 8401 (hit ratio 100.0%)
	// remote fetches   : 0.996 per call — the inline size field makes one read enough
}
