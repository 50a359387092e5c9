package runner

import (
	"context"
	"testing"
)

// TestReportHashSeparatesResults guards against a degenerate hash: two
// different simulation points must (overwhelmingly) hash differently.
func TestReportHashSeparatesResults(t *testing.T) {
	r := mustRunner(t, Options{})
	results, err := r.RunContext(context.Background(), []Job{benchJob("a", "swim", 16), benchJob("b", "swim", 256)})
	if err != nil {
		t.Fatal(err)
	}
	if ReportHash(results[0].Report) == ReportHash(results[1].Report) {
		t.Fatal("distinct simulation points produced identical report hashes")
	}
}
