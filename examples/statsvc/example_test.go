package main

// Example runs the program; go test checks every line it prints.
func Example() {
	main()
	// Output:
	// client 0: metric  0 -> count=  24 sum=    2396.0 min=   0.0 max= 270.0
	// client 1: metric  0 -> count=  24 sum=    2396.0 min=   0.0 max= 270.0
	// client 2: metric  0 -> count=  24 sum=    2396.0 min=   0.0 max= 270.0
	// client 0: metric  1 -> count=  24 sum=    2444.0 min=   1.0 max= 273.0
	// client 1: metric  1 -> count=  24 sum=    2444.0 min=   1.0 max= 273.0
	// client 2: metric  1 -> count=  24 sum=    2444.0 min=   1.0 max= 273.0
	// client 0: metric  0 -> count=  24 sum=    2396.0 min=   0.0 max= 270.0
	// client 1: metric  1 -> count=  24 sum=    2444.0 min=   1.0 max= 273.0
	// client 2: metric  2 -> count=  24 sum=    2395.0 min=   0.0 max= 276.0
	//
	// server aggregated 1500 samples across 64 metrics over RFP
}
