package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/stats"
)

// ReportHash returns a canonical content hash of a simulation result: a
// hex SHA-256 of the report's JSON encoding. Two runs of the same job are
// deterministic by construction, so their report hashes must be equal —
// the CI determinism gate holds every figure's hashes to a committed
// golden.
func ReportHash(rep stats.Report) string {
	b, err := json.Marshal(rep)
	if err != nil {
		// Report is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("runner: hash report: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
