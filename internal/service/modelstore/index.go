package modelstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fupermod/internal/transfer"
)

// This file is the store's in-memory index of its directory, the source of
// DonorPool and Stats. Every transfer fill needs the whole donor pool; the
// index makes that one directory listing and one stat per file, decoding
// and fingerprinting a file only when it is new or changed.
//
// The index is a cache of the directory, never an authority: every call
// revalidates it, so it returns exactly what a fresh Load would — other
// processes' writes, deletions and damage included. Load and Get never
// consult it; they are the restart and heal paths and read the disk.

// racySlack is how much older than a scan a file's mtime must be before the
// content that scan read may be trusted on its stamp alone. Timestamps have
// a granularity (a kernel tick, or coarser on some file systems), so a
// same-size in-place rewrite landing within one tick of the read leaves the
// stamp unchanged; a file cached while its mtime was that fresh is re-read
// on every scan until it has aged (git's racy-clean rule). 100 ms covers
// common timestamp granularities with room to spare.
const racySlack = 100 * time.Millisecond

// record is the index's view of one *.points file. Records are immutable
// once built: a changed file gets a new record, so a record handed out by
// refresh may be read without the index lock.
type record struct {
	// fi is the stat the record was validated against; nil (with readErr)
	// when the file vanished between listing and stat.
	fi os.FileInfo
	// racy marks content read while the file's mtime was within racySlack
	// of the scan: its stamp cannot vouch for it, so the next scan re-reads.
	racy bool
	// readErr marks a file that could not be read. It is never cached: an
	// unreadable file (permissions, I/O) can become readable without its
	// stamp changing.
	readErr bool
	// corrupt marks a file that was read but failed to decode. Decoding is
	// a function of the bytes, so this is cached by stamp like any content.
	corrupt bool

	key         Key
	transferred bool
	// donor is set (eligible) for intact, non-transferred entries with at
	// least two points — the only records that keep their decoded curve.
	// The fingerprint is computed once, here, not per fill.
	donor    transfer.Donor
	eligible bool
}

// sameStamp reports whether a cached stat still describes the file: same
// size, same mtime, same file (device and inode on Unix).
func sameStamp(old, cur os.FileInfo) bool {
	return old.Size() == cur.Size() && old.ModTime().Equal(cur.ModTime()) && os.SameFile(old, cur)
}

// refresh revalidates the index against the directory and returns one
// record per *.points file, in file-name order — Load's order, so anything
// derived from the records matches a fresh Load. A directory that cannot
// be listed reads as empty, as it does for Load's glob.
func (s *Store) refresh() []*record {
	scan := time.Now()
	des, _ := os.ReadDir(s.dir)
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	next := make(map[string]*record, len(s.index))
	recs := make([]*record, 0, len(des))
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, ".points") {
			continue
		}
		path := filepath.Join(s.dir, name)
		fi, err := os.Stat(path)
		if err != nil {
			recs = append(recs, &record{readErr: true})
			continue
		}
		r := s.index[name]
		if r == nil || r.racy || !sameStamp(r.fi, fi) {
			r = readRecord(path, fi, scan)
		}
		if !r.readErr {
			next[name] = r
		}
		recs = append(recs, r)
	}
	s.index = next
	return recs
}

// readRecord reads and decodes one file validated by fi in the scan that
// started at scan.
func readRecord(path string, fi os.FileInfo, scan time.Time) *record {
	r := &record{fi: fi, racy: !fi.ModTime().Before(scan.Add(-racySlack))}
	buf := loadBuffers.Get().(*bytes.Buffer)
	defer loadBuffers.Put(buf)
	buf.Reset()
	f, err := os.Open(path)
	if err == nil {
		_, err = buf.ReadFrom(f)
		f.Close()
	}
	if err != nil {
		r.readErr = true
		return r
	}
	e, err := Decode(path, buf.Bytes())
	if err != nil {
		r.corrupt = true
		return r
	}
	r.key = e.Key
	r.transferred = e.Transfer != ""
	if !r.transferred && len(e.Points) >= 2 {
		r.donor = transfer.NewDonor(DonorID(e.Key), e.Points)
		r.eligible = true
	}
	return r
}
