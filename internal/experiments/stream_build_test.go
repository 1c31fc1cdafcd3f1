package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"expertfind/internal/dataset"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// TestStreamBuildSegmentsGolden pins the bytes of every segment file a
// cold stream build writes for the ledger's seg corpus (seed 7, scale
// 1.01, 4000-doc chunks and FlushDocs 4000). The build overlaps its
// decode, analysis and AddBatch stages; the seal boundaries and every
// segment byte must not depend on that. build.json is not pinned: it
// carries the corpus file's identity, which follows the file's bytes.
func TestStreamBuildSegmentsGolden(t *testing.T) {
	want := map[string]string{
		"seg-000000.seg": "85dbe022211273a69ce4e4e799b84ee4f4c12bbeddb344aef90972026aa7f917",
		"seg-000001.seg": "5472bb1a607364119a46ba6e69751fc7066711f5085ab8285b7dbb0ae91583a7",
		"seg-000002.seg": "a0e3cd5fafc9fd492e376b13c2073d5e0726b2a151c6af46cad3922a43cbc10a",
		"seg-000003.seg": "f88dec0f098627f3c30d83e6116acf7b135336c15fd0c9e9a0fe4849dbbad43f",
	}
	dir := t.TempDir()
	path := writeStream(t, dir, dataset.StreamConfig{Config: dataset.Config{Seed: 7, Scale: 1.01}, ChunkDocs: 4000})
	o := BuildOptions{CorpusPath: path, SegmentDir: filepath.Join(dir, "segments"), Store: index.StoreOptions{FlushDocs: 4000}}
	build(t, o).Finder.Index().(*index.Store).Close()

	segs, err := filepath.Glob(filepath.Join(o.SegmentDir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got[filepath.Base(p)] = hex.EncodeToString(sum[:])
	}
	if len(got) != len(want) {
		t.Fatalf("the build wrote %d segment files, want %d", len(got), len(want))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], sum)
		}
	}
}

// A seal that fails behind the build is returned, not dropped: the
// segment directory goes away after a chunk that fits the memtable, so
// the next chunk's AddBatch fails its seal on a goroutine. The next add
// returns that error, or Build's wait does when no chunk follows; the
// store is closed and no goroutine is left.
func TestStreamBuildBackgroundSealFailure(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 6, Scale: 0.05})
	n := socialgraph.ResourceID(ds.Graph.NumResources())
	for _, next := range []string{"add", "wait"} {
		t.Run(next, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			dir := filepath.Join(t.TempDir(), "segments")
			b := &builder{}
			var err error
			if b.store, err = index.NewStore(dir, index.StoreOptions{FlushDocs: int(n / 4)}); err != nil {
				t.Fatal(err)
			}
			if err := b.add(ds, n/10); err != nil { // below FlushDocs: no seal
				t.Fatal(err)
			}
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := b.add(ds, n/2); err != nil { // its seal fails behind it
				t.Fatalf("the add that starts the failing seal returned %v", err)
			}
			if next == "add" {
				err = b.add(ds, n)
			} else {
				err = b.wait()
			}
			if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), dir) {
				t.Fatalf("%s after a failed seal: err = %v, want the seal's missing-directory error", next, err)
			}
			if segs := len(b.store.Status().Segments); segs != 1 {
				t.Fatalf("the failed seal left %d segments, want its unwritten one", segs)
			}
			if err := b.end(err); err == nil {
				t.Fatal("end dropped the build's error")
			}
			if segs := len(b.store.Status().Segments); segs != 0 {
				t.Fatalf("end left the store open with %d segments", segs)
			}
			assertGoroutinesBack(t, baseline)
		})
	}
}

// assertGoroutinesBack waits briefly for the goroutine count to fall
// back to baseline.
func assertGoroutinesBack(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), baseline)
		}
	}
}
