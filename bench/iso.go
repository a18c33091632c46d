package main

import "time"

// isoTarget is how long each isolation drive is timed at full scale.
const isoTarget = 750 * time.Millisecond

// runIso times every isolation drive listed under w for about target wall
// time each and returns ns per unit, plus the kernel events per unit for the
// drives that report them.
func runIso(w benchWorkload, target time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, mk := range w.iso {
		d := mk()
		d.run(d.chunk / 10) // first touches, lazy engine creation
		var units, events uint64
		start := time.Now()
		for {
			u, e := d.run(d.chunk)
			units, events = units+u, events+e
			if time.Since(start) >= target {
				break
			}
		}
		wall := time.Since(start)
		d.close()
		out[d.name] = ratio(float64(wall.Nanoseconds()), float64(units))
		if d.eventsName != "" {
			out[d.eventsName] = ratio(float64(events), float64(units))
		}
	}
	return out
}
