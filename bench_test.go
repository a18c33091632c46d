package rfp_test

// Benchmark harness: one testing.B sub-benchmark per registered experiment
// (the paper's tables and figures, the ablations and the extensions). Each
// runs its experiment end-to-end on the simulated cluster and reports the
// headline metric; run with -v to see the full series the paper plots, or
// use cmd/rfpbench for the interactive version.
//
//	go test -bench=Experiments -benchmem .          # full point sets
//	go test -short -bench=Experiments/fig12 -v .    # one figure, quickly, with its table
import (
	"testing"

	"rfp/internal/experiments"
)

// BenchmarkExperiments runs one sub-benchmark per id in experiments.IDs(),
// reporting the peak of the first series where one exists. -short takes the
// quick point sets.
func BenchmarkExperiments(b *testing.B) {
	o := experiments.DefaultOptions()
	o.Quick = testing.Short()
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(id, o)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + res.String())
					if len(res.Series) > 0 {
						b.ReportMetric(res.Series[0].PeakY(), "peakMOPS")
					}
				}
			}
		})
	}
}
