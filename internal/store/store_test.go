package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "bT8/HCC-DTS-gwb|cilk5-cs|test|0|chaos-lossy-all|1"
	payload := []byte(`[{"config":"bT8/HCC-DTS-gwb"}]` + "\n")
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: ok=%v got=%q", ok, got)
	}
	// Overwrite wins.
	payload2 := []byte("v2")
	if err := s.Put(key, payload2); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload2) {
		t.Fatalf("overwrite not visible: ok=%v got=%q", ok, got)
	}
	st := s.Stats()
	if st.Puts != 2 || st.Hits != 2 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats off: %+v", st)
	}
}

func TestEmptyPayloadAndKeyValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k"); !ok || len(got) != 0 {
		t.Fatalf("empty payload round trip: ok=%v got=%q", ok, got)
	}
}

// corrupt applies one random mutation to a file: truncate at a random
// offset, flip one random byte, or append garbage. It reports what it
// did and whether the image actually changed.
func corrupt(t *testing.T, rng *rand.Rand, path string) (string, bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var desc string
	mutated := append([]byte(nil), data...)
	switch rng.Intn(3) {
	case 0:
		n := rng.Intn(len(mutated) + 1) // [0, len] — len is a no-op
		mutated = mutated[:n]
		desc = fmt.Sprintf("truncate to %d/%d", n, len(data))
	case 1:
		i := rng.Intn(len(mutated))
		mutated[i] ^= byte(1 + rng.Intn(255))
		desc = fmt.Sprintf("flip byte %d/%d", i, len(data))
	case 2:
		extra := make([]byte, 1+rng.Intn(64))
		rng.Read(extra)
		mutated = append(mutated, extra...)
		desc = fmt.Sprintf("append %d bytes", len(extra))
	}
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	return desc, !bytes.Equal(mutated, data)
}

// TestCorruptionIsMissNeverPartial is the crash-safety property test:
// for hundreds of randomly corrupted entries (truncation at any offset,
// single-bit rot, trailing garbage), every Get returns either the exact
// original payload or a miss — never partial bytes, never a panic —
// and a re-Put fully heals the entry.
func TestCorruptionIsMissNeverPartial(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("cfg|app-%d|size|%d|scenario|%d", i, i%7, i)
		payload := make([]byte, rng.Intn(4096))
		rng.Read(payload)
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		desc, changed := corrupt(t, rng, s.pathFor(key))
		got, ok := s.Get(key)
		if ok && !bytes.Equal(got, payload) {
			t.Fatalf("entry %d (%s): Get served corrupted bytes", i, desc)
		}
		if changed && ok {
			t.Fatalf("entry %d (%s): corrupted image verified as intact", i, desc)
		}
		// Healing: the next Put replaces whatever is on disk.
		if err := s.Put(key, payload); err != nil {
			t.Fatalf("entry %d (%s): re-put failed: %v", i, desc, err)
		}
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("entry %d (%s): entry not healed by re-put", i, desc)
		}
	}
	if st := s.Stats(); st.Corrupt == 0 {
		t.Fatal("property test never exercised the corruption path")
	}
}

// TestKilledMidWriteLeavesNoEntry models kill -9 between temp-file
// write and rename: the orphan temp file must be invisible to Get, and
// a previous entry under the same key must survive untouched.
func TestKilledMidWriteLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte("committed result")
	if err := s.Put("job", old); err != nil {
		t.Fatal(err)
	}
	// A writer died here: half an entry in a temp file, never renamed.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123456"), []byte("btstore1\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("job"); !ok || !bytes.Equal(got, old) {
		t.Fatalf("orphan temp file disturbed the committed entry: ok=%v got=%q", ok, got)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1 entry (temp files are not entries)", n, err)
	}
}

// TestWrongKeyUnderOurName: a valid entry file for key A renamed to key
// B's address must read as a miss for B (the key echo catches it).
func TestWrongKeyUnderOurName(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", []byte("a's data")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.pathFor("key-a"), s.pathFor("key-b")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key-b"); ok {
		t.Fatal("foreign entry served under the wrong key")
	}
}

// TestConcurrentPutGet hammers one store from many goroutines; under
// -race this proves the tier is safe for a parallel worker pool.
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", g%4) // overlap keys across goroutines
			want := []byte(fmt.Sprintf("payload-%d", g%4))
			for i := 0; i < 50; i++ {
				if err := s.Put(key, want); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: read tore: %q", g, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
