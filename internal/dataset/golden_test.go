package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// The generator is the fixed point every figure, pin and golden body
// rests on (DESIGN.md §2): these digests pin the bytes of one
// generated corpus and of its synthetic Web, so a change that moves a
// single draw fails here first.
const (
	goldenSnapshotSHA256 = "90af3a1ff6557b299188b8c0fd676d3272d9f8494fff9358e8d7a95b9e002c3d"
	goldenPagesSHA256    = "edc9a272d2e547b2e8259422d98a3f72f416ef7cd12cd29b9129909ab7d02d72"
)

func sha256JSON(t testing.TB, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func TestGenerateGolden(t *testing.T) {
	d := Generate(Config{Seed: 7, Scale: 0.5})
	if got := sha256JSON(t, d.Snapshot()); got != goldenSnapshotSHA256 {
		t.Errorf("Snapshot() JSON sha256 = %s, want %s", got, goldenSnapshotSHA256)
	}
	if got := sha256JSON(t, d.Web.Pages()); got != goldenPagesSHA256 {
		t.Errorf("Web.Pages() JSON sha256 = %s, want %s", got, goldenPagesSHA256)
	}
}

func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: 7, Scale: 0.5})
	}
}
