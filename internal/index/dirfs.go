package index

import (
	"io"
	"os"
)

// dirFS is every file call a Store makes in its directory outside
// OpenSegment's read path. It is the seam a test puts a fault layer
// under; osFS is its one implementation outside tests.
type dirFS interface {
	MkdirAll(dir string) error
	// List returns the names in dir, sorted.
	List(dir string) ([]string, error)
	Create(path string) (dirFile, error)
	Rename(from, to string) error
	Remove(path string) error
	// SyncDir makes the entries renamed into dir durable.
	SyncDir(dir string) error
	ReadFile(path string) ([]byte, error)
}

// dirFile is a file dirFS created for writing.
type dirFile interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is dirFS on the operating system.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, err
}

func (osFS) Create(path string) (dirFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(from, to string) error         { return os.Rename(from, to) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
