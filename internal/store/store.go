// Package store is a disk-backed, content-addressed result tier: a
// persistent cache under the bench suite's in-memory singleflight
// layer, designed crash-safe first.
//
// Entries are written atomically — payload and checksummed header go to
// a temp file, which is fsynced and then renamed over the final name —
// so a reader never observes a half-written entry under a live writer,
// and a daemon killed mid-write (kill -9 included) leaves either the
// old entry, the new entry, or an orphan temp file that lookups never
// touch. Reads verify the whole entry (magic, key echo, length,
// SHA-256 of the payload) and treat ANY mismatch — truncation, bit rot,
// a stranger's file under our name — as a miss: corrupt data is never
// served and never fatal, it just costs a recomputation.
//
// The address is the caller's key string (for the simulation service:
// the canonical (config, app, size, grain, scenario, seed) tuple);
// filenames are the key's SHA-256, so arbitrary key bytes never meet
// the filesystem's name rules.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"bigtiny/internal/atomicio"
)

// magic identifies entry files and versions the on-disk format.
var magic = [8]byte{'b', 't', 's', 't', 'o', 'r', 'e', '1'}

// maxKeyLen bounds the key-echo field so a corrupt length cannot make
// a reader allocate gigabytes.
const maxKeyLen = 1 << 16

// Stats are the store's observability counters (atomic; safe to read
// while the store serves traffic).
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Corrupt uint64 `json:"corrupt"` // misses caused by a failed verification
	Puts    uint64 `json:"puts"`
	Errors  uint64 `json:"errors"` // failed writes (disk full, permissions, ...)
}

// Store is one on-disk result tier rooted at a directory. All methods
// are safe for concurrent use by any number of goroutines (and, thanks
// to rename atomicity, by cooperating processes sharing the root).
type Store struct {
	root string

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
	puts    atomic.Uint64
	errors  atomic.Uint64
}

// Open returns a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Puts:    s.puts.Load(),
		Errors:  s.errors.Load(),
	}
}

// pathFor maps a key to its entry file: content addressing by the
// key's SHA-256.
func (s *Store) pathFor(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.root, fmt.Sprintf("%x.res", sum))
}

// entry layout after the 8-byte magic, all integers big-endian:
//
//	u32 keyLen | key bytes | u64 payloadLen | 32-byte sha256(payload) | payload
//
// The key echo guards against hash collisions and hand-renamed files;
// the checksum guards the payload; the explicit length catches
// truncation AND trailing garbage (the file must end exactly where the
// payload does).

// Put atomically persists payload under key, replacing any previous
// entry. The data is on disk (fsynced) before Put returns.
func (s *Store) Put(key string, payload []byte) error {
	if err := s.put(key, payload); err != nil {
		s.errors.Add(1)
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	s.puts.Add(1)
	return nil
}

func (s *Store) put(key string, payload []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("key length %d out of range [1, %d]", len(key), maxKeyLen)
	}
	// atomicio does the temp+fsync+rename dance; a crash mid-write
	// leaves an orphan ".tmp-" file that pathFor can never resolve to.
	return atomicio.WriteFile(s.pathFor(key), encode(key, payload), 0o600)
}

// encode builds the entry image of payload under key: the one image
// decode accepts for that pair.
func encode(key string, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+4+len(key)+8+sha256.Size+len(payload))
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

// Get returns the payload stored under key. ok is false on a genuine
// miss AND on any entry that fails verification; a false return never
// carries partial data, and no on-disk state — truncated, bit-flipped,
// or foreign — makes Get panic or error out.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	data, err := os.ReadFile(s.pathFor(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, ok = decode(key, data)
	if !ok {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// decode verifies one entry image against key and extracts the payload.
func decode(key string, data []byte) ([]byte, bool) {
	off := 0
	take := func(n int) ([]byte, bool) {
		if n < 0 || len(data)-off < n {
			return nil, false
		}
		b := data[off : off+n]
		off += n
		return b, true
	}
	m, ok := take(len(magic))
	if !ok || string(m) != string(magic[:]) {
		return nil, false
	}
	klRaw, ok := take(4)
	if !ok {
		return nil, false
	}
	kl := binary.BigEndian.Uint32(klRaw)
	if kl == 0 || kl > maxKeyLen {
		return nil, false
	}
	k, ok := take(int(kl))
	if !ok || string(k) != key {
		return nil, false
	}
	plRaw, ok := take(8)
	if !ok {
		return nil, false
	}
	pl := binary.BigEndian.Uint64(plRaw)
	sum, ok := take(sha256.Size)
	if !ok {
		return nil, false
	}
	// The payload must fill the rest of the file exactly: shorter is
	// truncation, longer is trailing garbage; both are corruption.
	if pl != uint64(len(data)-off) {
		return nil, false
	}
	payload := data[off:]
	if sha256.Sum256(payload) != [sha256.Size]byte(sum) {
		return nil, false
	}
	return payload, true
}

// Len counts the entries currently on disk (orphan temp files are not
// entries). Diagnostics only; the count can be stale by the time it
// returns.
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".res" {
			n++
		}
	}
	return n, nil
}
