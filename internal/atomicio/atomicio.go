// Package atomicio provides crash-safe file replacement: data goes to
// a temp file in the destination directory, is fsynced, and is renamed
// over the final name. A reader therefore never observes a half-written
// file, and a writer killed at any instant (kill -9 included) leaves
// either the old content, the new content, or an orphan temp file that
// nothing resolves to — never a torn mix.
//
// The pattern originated in internal/store (whose entries additionally
// carry checksums); it lives here so every file the repo treats as
// durable state — store entries, the BENCH.json perf trajectory and
// the page rendered from it — shares one write path instead of each
// caller re-implementing (or forgetting) the dance.
package atomicio

import (
	"os"
	"path/filepath"
)

// TestHookBeforeRename, when non-nil, runs after the temp file has
// received its bytes but before the rename publishes them. Crash-
// injection tests use it to die mid-write and then assert the
// destination never changed. Leave nil outside tests.
var TestHookBeforeRename func()

// WriteFile atomically replaces path with data. The bytes are on disk
// (fsynced) before the rename, so after WriteFile returns the new
// content survives a crash; a failure or crash before that leaves any
// previous file untouched. The temp file is created alongside path
// (rename is only atomic within a filesystem) with a ".tmp-" prefix
// callers can recognise and skip when scanning the directory.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Chmod(perm); err != nil {
		return fail(err)
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if TestHookBeforeRename != nil {
		TestHookBeforeRename()
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename itself. Directory fsync is best-effort — some
	// filesystems refuse it — and losing it only reverts to the old
	// (still intact) content after a crash.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
