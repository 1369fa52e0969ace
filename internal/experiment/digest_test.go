package experiment

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// digestFile holds the SHA-256 of the reduced-scale reproduction that
// TestReproductionDigest renders.
const digestFile = "testdata/reproduction-400.sha256"

// TestReproductionDigest renders every registered experiment at 400
// jobs per trace, as pexp prints them, and compares a SHA-256 of the
// output with the checked-in digest. Any change to what the
// reproduction computes changes the digest, so a behaviour-changing
// commit cannot leave results/ stale without noticing.
func TestReproductionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	r := NewRunner(Config{Jobs: 400, Seed: 1, Verify: true})
	var b strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&b, "=== %s: %s ===\n%s\n", e.ID, e.Title, e.Run(r).Render())
	}
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("reproduction output changed: digest %s, want %s.\n"+
			"If the change is intended, regenerate results/ with\n"+
			"\tgo run ./cmd/pexp -exp all -jobs 8000 -verify -q > results/pexp-all-8000.txt\n"+
			"write %s to internal/experiment/%s, and say so in CHANGES.md.",
			got, want, got, digestFile)
	}
}
