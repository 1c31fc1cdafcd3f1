// Package corpusio persists complete evaluation corpora — social
// graph, synthetic Web, queries and ground truth — in one file format:
// (optionally gzip-compressed) JSON lines holding a header, the base
// dataset snapshot, zero or more bulk chunks in order, and a trailer
// whose totals expose a truncated file. SaveFile writes a corpus
// already in memory as a file with no chunks, WriteStreamFile
// generates one chunk by chunk in bounded memory, and LoadStreamFile
// reads either. A generated dataset can thus be saved once and
// reloaded across processes, or replaced by a real crawl with the same
// schema.
package corpusio

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"expertfind/internal/dataset"
)

// streamFormatVersion guards the corpus file format against files
// written by incompatible releases.
const streamFormatVersion = 1

// streamRecord is one line of a corpus file: exactly one of the
// payload fields is set. The first record is the header, followed by
// the base snapshot, the bulk chunks in order, and a trailer whose
// totals let the loader detect truncated files.
type streamRecord struct {
	Format  string               `json:"format,omitempty"`
	Version int                  `json:"version,omitempty"`
	Base    *dataset.Snapshot    `json:"base,omitempty"`
	Chunk   *dataset.StreamChunk `json:"chunk,omitempty"`
	EOF     *streamTrailer       `json:"eof,omitempty"`
}

// streamTrailer closes a corpus file with the totals the loader
// verifies after replay.
type streamTrailer struct {
	Chunks    int `json:"chunks"`
	Users     int `json:"users"`
	Resources int `json:"resources"`
}

// StreamWriter persists a corpus incrementally — header and base
// snapshot first, then one record per bulk chunk — so a scale-100
// corpus is written without ever materializing more than the base plus
// one chunk. WriteStreamFile drives it from dataset.GenerateStream: the
// base in onBase, each chunk in onChunk, then Close to append the
// integrity trailer.
type StreamWriter struct {
	f      *os.File
	gz     *gzip.Writer
	bw     *bufio.Writer
	enc    *json.Encoder
	chunks int
	users  int
	res    int
	closed bool
}

// CreateStream opens path for corpus writing; a ".gz" suffix selects
// gzip compression at gzip.BestSpeed, which deflates 3–4× faster than
// the default level for a file about a third larger.
func CreateStream(path string) (*StreamWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &StreamWriter{f: f}
	var out io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		w.gz, _ = gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level: no error
		out = w.gz
	}
	w.bw = bufio.NewWriterSize(out, 1<<20)
	w.enc = json.NewEncoder(w.bw)
	if err := w.enc.Encode(streamRecord{Format: "expertfind-corpus-stream", Version: streamFormatVersion}); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// WriteBase writes the base dataset snapshot; call once, before any
// chunk.
func (w *StreamWriter) WriteBase(d *dataset.Dataset) error {
	snap := d.Snapshot()
	w.users = d.Graph.NumUsers()
	w.res = d.Graph.NumResources()
	return w.enc.Encode(streamRecord{Base: snap})
}

// WriteChunk appends one bulk chunk.
func (w *StreamWriter) WriteChunk(c *dataset.StreamChunk) error {
	w.chunks++
	w.users += len(c.Users)
	w.res += len(c.Resources)
	return w.enc.Encode(streamRecord{Chunk: c})
}

// Close appends the integrity trailer and closes the file.
func (w *StreamWriter) Close() (err error) {
	if w.closed {
		return nil
	}
	w.closed = true
	err = w.enc.Encode(streamRecord{EOF: &streamTrailer{Chunks: w.chunks, Users: w.users, Resources: w.res}})
	if ferr := w.bw.Flush(); err == nil {
		err = ferr
	}
	if w.gz != nil {
		if gerr := w.gz.Close(); err == nil {
			err = gerr
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SaveFile writes d to path as a corpus file with no chunks; a ".gz"
// suffix selects gzip compression. LoadStreamFile reads it back.
func SaveFile(d *dataset.Dataset, path string) error {
	w, err := CreateStream(path)
	if err != nil {
		return err
	}
	err = w.WriteBase(d)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteStreamFile generates cfg's corpus straight into a corpus file at
// path: the base snapshot, then each bulk chunk as it is generated,
// whose texts are dropped from memory once written so peak memory
// stays bounded by the base plus one chunk whatever the scale.
// progress, when set, observes the growing dataset after each chunk
// lands, with the number of chunks written so far. The returned
// dataset carries the full graph; only its base resources keep texts.
func WriteStreamFile(path string, cfg dataset.StreamConfig, progress func(d *dataset.Dataset, chunks int)) (*dataset.Dataset, error) {
	w, err := CreateStream(path)
	if err != nil {
		return nil, err
	}
	chunks := 0
	d, err := dataset.GenerateStream(cfg, w.WriteBase, func(d *dataset.Dataset, c *dataset.StreamChunk) error {
		if err := w.WriteChunk(c); err != nil {
			return err
		}
		d.BlankChunkTexts(c)
		chunks++
		if progress != nil {
			progress(d, chunks)
		}
		return nil
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// StreamLoadOptions customizes corpus loading. Both options act on
// bulk chunks only, so a file with none loads the same either way.
type StreamLoadOptions struct {
	// DropTexts blanks every bulk resource text right after its chunk
	// is applied, keeping only the graph structure — the mode a server
	// uses when scoring comes from a pre-built segment store and the
	// texts would only burn memory. A graph with blanked texts is no
	// exact copy of the file, so it carries no origin stamp.
	DropTexts bool
	// OnChunk, when set, observes each chunk after it is applied to
	// the growing dataset (and before DropTexts blanking). Returning
	// an error aborts the load.
	OnChunk func(d *dataset.Dataset, c *dataset.StreamChunk) error
}

// LoadStreamFile reads a corpus file written by StreamWriter: base
// snapshot first, then every chunk in order, rebuilding the exact
// dataset that was saved or that GenerateStream produced. A ".gz"
// suffix selects gzip; a missing trailer or mismatched totals is a
// truncation error.
//
// One goroutine gunzips and decodes records ahead of the loop that
// applies them: one waits in a channel of capacity 1 while the next is
// decoded. It has exited by the time LoadStreamFile returns, whatever
// the outcome. Records, and a decode error after them, reach the loop
// in file order, so OnChunk sees the chunks a serial read would.
//
// The dataset's Identity is a SHA-256 of the file's bytes, taken as
// they stream through the load, so equal files load with equal
// identities. Unless DropTexts blanked a text, the graph is stamped
// as an exact copy of that identity (socialgraph.Graph.StampOrigin).
func LoadStreamFile(path string, o StreamLoadOptions) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	digest := sha256.New()
	var r io.Reader = io.TeeReader(f, digest)
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("corpusio: opening gzip corpus: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<20))

	var hdr streamRecord
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("corpusio: decoding corpus header: %w", err)
	}
	switch hdr.Format {
	case "expertfind-corpus-stream":
	case "expertfind-corpus":
		return nil, fmt.Errorf("corpusio: %s is a single-record corpus file, a format no longer read; regenerate it with `datagen -save`", path)
	default:
		return nil, fmt.Errorf("corpusio: not an expertfind corpus (format %q)", hdr.Format)
	}
	if hdr.Version != streamFormatVersion {
		return nil, fmt.Errorf("corpusio: unsupported corpus version %d (supported: %d)", hdr.Version, streamFormatVersion)
	}

	// The decoder stops after its first error or the trailer. Deferred
	// after the closes, the wait runs before them.
	type decoded struct {
		rec streamRecord
		err error
	}
	recs, stop, exited := make(chan decoded, 1), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			var r decoded
			r.err = dec.Decode(&r.rec)
			select {
			case recs <- r:
			case <-stop:
				return
			}
			if r.err != nil || r.rec.EOF != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-exited
	}()

	var d *dataset.Dataset
	chunks, blanked := 0, false
	for {
		r := <-recs
		if err := r.err; err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("corpusio: corpus truncated (no trailer)")
			}
			return nil, fmt.Errorf("corpusio: decoding corpus record: %w", err)
		}
		rec := r.rec
		switch {
		case rec.Base != nil:
			if d != nil {
				return nil, fmt.Errorf("corpusio: corpus has two base snapshots")
			}
			d, err = dataset.FromSnapshot(rec.Base)
			if err != nil {
				return nil, fmt.Errorf("corpusio: %w", err)
			}
		case rec.Chunk != nil:
			if d == nil {
				return nil, fmt.Errorf("corpusio: corpus chunk before base snapshot")
			}
			chunks++
			d.ApplyChunk(rec.Chunk)
			if o.OnChunk != nil {
				if err := o.OnChunk(d, rec.Chunk); err != nil {
					return nil, err
				}
			}
			if o.DropTexts {
				d.BlankChunkTexts(rec.Chunk)
				blanked = blanked || len(rec.Chunk.Resources) > 0
			}
		case rec.EOF != nil:
			if d == nil {
				return nil, fmt.Errorf("corpusio: corpus has no base snapshot")
			}
			if rec.EOF.Chunks != chunks {
				return nil, fmt.Errorf("corpusio: corpus truncated: %d of %d chunks", chunks, rec.EOF.Chunks)
			}
			if got := d.Graph.NumUsers(); got != rec.EOF.Users {
				return nil, fmt.Errorf("corpusio: corpus user count %d, trailer says %d", got, rec.EOF.Users)
			}
			if got := d.Graph.NumResources(); got != rec.EOF.Resources {
				return nil, fmt.Errorf("corpusio: corpus resource count %d, trailer says %d", got, rec.EOF.Resources)
			}
			// The digest covers the whole file: the bytes past what the
			// decoders read ahead join it here, once the decoder is done
			// reading.
			<-exited
			if _, err := io.Copy(digest, f); err != nil {
				return nil, fmt.Errorf("corpusio: reading corpus: %w", err)
			}
			d.Identity = "sha256:" + hex.EncodeToString(digest.Sum(nil))
			if !blanked {
				d.Graph.StampOrigin(d.Identity)
			}
			return d, nil
		default:
			return nil, fmt.Errorf("corpusio: corpus has an empty record")
		}
	}
}
