package locksim_test

import (
	"testing"

	"rfp/internal/analysis/analysistest"
	"rfp/internal/analysis/locksim"
)

func TestLocksim(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), locksim.Analyzer,
		"rfp/internal/fabricx", // sync primitives, channel ops, go statements, suppression
		"rfp/internal/sim",     // the kernel gets no exemption
	)
}
