// Package sim is golden testdata for locksim's scope: the scheduler kernel
// switches into processes as coroutines and runs every window on Run's
// goroutine, so rfp/internal/sim gets no exemption — a worker pool or a
// channel hand-off there is reported like anywhere else.
package sim

func handoff(resume chan bool, yield chan struct{}) {
	go func() {}()      // want `raw go statement escapes the cooperative scheduler`
	yield <- struct{}{} // want `channel send blocks the one runnable simulation process`
	<-resume            // want `channel receive blocks the one runnable simulation process`
}
