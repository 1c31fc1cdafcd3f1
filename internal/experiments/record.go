package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
)

// buildRecordFile names the build record inside a segment directory.
const buildRecordFile = "build.json"

// buildRecord is what a segment directory says about the build that
// filled it: the corpus it indexed (dataset.Dataset.Identity), the
// slice, and whether the build finished. Build writes it incomplete
// before the first document reaches the store and complete after the
// final seal. The store keeps the record (Store.PutRecord) and this
// package owns its schema.
type buildRecord struct {
	Corpus     string `json:"corpus"`
	ShardID    int    `json:"shard_id"`
	ShardCount int    `json:"shard_count"`
	Complete   bool   `json:"complete"`
}

// PrebuiltError refuses a populated segment directory that its build
// record does not vouch for: the record is missing or unreadable, the
// build that wrote it did not finish, or it indexed another corpus or
// slice than the one the directory is opened as. Served, such a store
// would answer from part of an index, or from another corpus's.
type PrebuiltError struct {
	Dir    string
	Reason string
}

// Error names the directory, the reason and the remedy.
func (e *PrebuiltError) Error() string {
	return fmt.Sprintf("experiments: segment dir %s is not a finished build of this corpus and slice: %s; delete it to rebuild", e.Dir, e.Reason)
}

// slice is the build's slice as its record holds it: a whole build is
// shard 0 of 1, however it was asked for.
func (b *builder) slice() (id, count int) {
	if b.o.ShardCount <= 1 {
		return 0, 1
	}
	return b.o.ShardID, b.o.ShardCount
}

// writeRecord replaces the directory's build record through the
// store's durable write.
func (b *builder) writeRecord(corpus string, complete bool) error {
	rec := buildRecord{Corpus: corpus, Complete: complete}
	rec.ShardID, rec.ShardCount = b.slice()
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := b.store.PutRecord(buildRecordFile, append(data, '\n')); err != nil {
		return fmt.Errorf("experiments: writing build record: %w", err)
	}
	return nil
}

// checkRecord refuses a prebuilt directory, with a *PrebuiltError,
// unless its build record is complete and names corpus and this
// build's slice.
func (b *builder) checkRecord(corpus string) error {
	refuse := func(format string, args ...any) error {
		return &PrebuiltError{Dir: b.o.SegmentDir, Reason: fmt.Sprintf(format, args...)}
	}
	data, err := b.store.Record(buildRecordFile)
	if errors.Is(err, fs.ErrNotExist) {
		return refuse("it holds no build record")
	}
	if err != nil {
		return fmt.Errorf("experiments: reading build record: %w", err)
	}
	var rec buildRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return refuse("its build record is unreadable: %v", err)
	}
	id, count := b.slice()
	switch {
	case !rec.Complete:
		return refuse("the build that wrote it did not finish")
	case rec.Corpus != corpus:
		return refuse("it was built from corpus %q, opened with %q", rec.Corpus, corpus)
	case rec.ShardID != id || rec.ShardCount != count:
		return refuse("it was built as shard %d/%d, opened as shard %d/%d", rec.ShardID, rec.ShardCount, id, count)
	}
	return nil
}
