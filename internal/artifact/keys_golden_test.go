package artifact

import (
	"testing"

	"vcache/internal/core"
	"vcache/internal/workloads"
)

// TestKeysGolden pins the hex digests of one trace key and one result key.
// Result keys name every on-disk result entry and are reported to vcsimd
// clients as job fingerprints, so a refactor that moves them silently
// orphans every cached result. A deliberate move (a SimVersion or
// GeneratorVersion bump) updates these constants in the same change.
func TestKeysGolden(t *testing.T) {
	const (
		wantTrace  = "4a0b4e9f7695b2838bc3c82b39398b4605c0d13123a18a5134be052265ce9f3a"
		wantResult = "80c8dd529fcd622150bffb9215e6ae7ee0b88d0e5df99c238ce09a78cd489dc8"
	)
	tk := TraceKey("bfs", workloads.DefaultParams())
	if got := tk.String(); got != wantTrace {
		t.Errorf("TraceKey(bfs, defaults) = %s, want %s", got, wantTrace)
	}
	if got := ResultKey(tk, core.DesignVCOpt()).String(); got != wantResult {
		t.Errorf("ResultKey(bfs, vc-opt) = %s, want %s", got, wantResult)
	}
}
