package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// SchemaVersion tags every cache file. Bump it when the on-disk entry
// format changes; entries written under another version are treated as
// misses. (Changes to what a job computes are versioned separately, in
// the job keys themselves — see internal/experiment's resultsVersion.)
const SchemaVersion = 1

// Cache is an on-disk, content-addressed result store. Each entry is one
// JSON file named by the SHA-256 of the schema version and job key, laid
// out in 256 fan-out directories to keep listings manageable. Writes are
// atomic (temp file + rename), so concurrent processes sharing a cache
// directory at worst redundantly compute and then write identical
// entries.
type Cache struct {
	dir  string
	logf func(format string, args ...any)
}

// SetLogf installs a logger for damaged-entry reports (nil, the default,
// keeps recovery silent). A truncated or otherwise corrupt entry is
// never an error — Get treats it as a miss and the engine recomputes —
// but an operator running a long-lived shared cache wants to know the
// disk is eating entries.
func (c *Cache) SetLogf(logf func(format string, args ...any)) { c.logf = logf }

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// entry is the cache file format. Key is stored verbatim so entries are
// debuggable with a text editor and so Get can reject the (cosmically
// unlikely) hash collision as well as any stale addressing scheme.
type entry struct {
	Schema int             `json:"schema"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// path returns the content address of key.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("sweep-schema-%d|%s", SchemaVersion, key)))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(c.dir, name[:2], name+".json")
}

// Get returns the stored raw JSON result for key, or ok=false on any
// miss: absent file, unreadable or corrupt entry, schema mismatch, or
// key mismatch. A corrupt entry is simply recomputed by the engine; when
// a logger is installed (SetLogf) the damage is reported, because a
// present-but-unusable file — unlike a plain absence — usually means a
// truncated write or bit rot worth an operator's attention.
func (c *Cache) Get(_ context.Context, key string) (json.RawMessage, bool) {
	p := c.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		if !os.IsNotExist(err) && c.logf != nil {
			c.logf("sweep cache: unreadable entry %s (treating as miss): %v", p, err)
		}
		return nil, false
	}
	var e entry
	switch {
	case json.Unmarshal(b, &e) != nil:
		if c.logf != nil {
			c.logf("sweep cache: corrupt entry %s (%d bytes, treating as miss)", p, len(b))
		}
		return nil, false
	case e.Schema != SchemaVersion:
		// A foreign schema version is expected after an upgrade, not
		// damage: stay silent, recompute, overwrite.
		return nil, false
	case e.Key != key:
		if c.logf != nil {
			c.logf("sweep cache: entry %s holds key %q, want %q (treating as miss)", p, e.Key, key)
		}
		return nil, false
	}
	return e.Result, true
}

// Put stores the raw JSON result for key atomically and durably: the
// entry is written to a temp file, fsynced, renamed into place, and the
// fan-out directory is fsynced so the rename itself survives a crash.
// A worker killed at any point can therefore never leave a truncated
// entry visible to a shared store — readers see the old entry (none)
// or the whole new one. (Get additionally treats a corrupt entry as a
// miss, so even bit rot downgrades to a recompute, never an error.)
func (c *Cache) Put(_ context.Context, key string, result json.RawMessage) error {
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(entry{Schema: SchemaVersion, Key: key, Result: result})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), filepath.Base(p)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// Flush file contents before the rename publishes the name: rename
	// is atomic for readers, but only the fsync makes the bytes behind
	// it durable — without it a crash can promote an empty file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(filepath.Dir(p))
}

// syncDir fsyncs a directory so a just-renamed entry's name is durable.
// Filesystems that reject directory fsync (some network mounts) are
// tolerated: the entry is still atomically visible, only crash
// durability is reduced to the filesystem's own guarantee.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
