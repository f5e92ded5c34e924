package modelstore

import (
	"fmt"
	"net/url"
	"sort"

	"fupermod/internal/core"
	"fupermod/internal/transfer"
)

// This file is the store side of cross-device model transfer
// (internal/transfer): the on-disk sweep database doubles as the donor
// pool a cold (tenant, device) pair warm-starts from, and the
// curve-similarity search ranks that pool by shape fingerprint against
// the cold device's first probes.

// DonorID renders a stored entry's identity as the printable-ASCII donor
// string used in transfer provenance: tenant and device url-escaped, the
// measurement conditions spelled out. It parses back by eye, not by
// machine — provenance is an audit record, not an address.
func DonorID(k Key) string {
	return fmt.Sprintf("%s/%s/seed=%d/noise=%s/grid=%d:%d:%d",
		url.QueryEscape(k.Tenant), url.QueryEscape(k.Device),
		k.Seed, fmtG(k.Noise), k.Lo, k.Hi, k.N)
}

// DonorPool returns every entry eligible to donate its curve to the given
// key: intact, at least two points (a single point has no shape), not the
// key itself, and not itself transferred — warm-starting from a
// warm-start would compound the approximation bounds silently, so
// transfer provenance disqualifies an entry as a donor. Corrupt files are
// skipped (the fill path heals them); the pool is sorted by DonorID so
// two replicas scanning the same directory rank identically.
//
// The pool comes from the store's index (index.go), revalidated against
// the directory on every call, so it is exactly the pool a fresh Load
// would yield. The returned slice is the caller's, but every donor's
// Points are shared with the index and with every other caller: they are
// read-only, and a caller that needs to modify a curve must copy it.
func (s *Store) DonorPool(exclude Key) ([]transfer.Donor, error) {
	recs := s.refresh()
	donors := make([]transfer.Donor, 0, len(recs))
	for _, r := range recs {
		if r.eligible && r.key != exclude {
			donors = append(donors, r.donor)
		}
	}
	sort.Slice(donors, func(i, j int) bool { return donors[i].ID < donors[j].ID })
	return donors, nil
}

// SimilarCurves is the store's curve-similarity search: rank the donor
// pool (excluding the key being filled) by fingerprint distance to the
// probed curve and return at most max candidates (max <= 0 returns all).
func (s *Store) SimilarCurves(exclude Key, probes []core.Point, max int) ([]transfer.Candidate, error) {
	donors, err := s.DonorPool(exclude)
	if err != nil {
		return nil, err
	}
	return transfer.Rank(donors, probes, max), nil
}

// StoreStats is a point-in-time census of the store directory.
type StoreStats struct {
	// Entries counts intact entry files; Transferred of those carry
	// transfer provenance (so Entries - Transferred is the donor-eligible
	// upper bound before the per-key filters).
	Entries     int64 `json:"entries"`
	Transferred int64 `json:"transferred"`
	// Bytes is the total size of all *.points files, corrupt included —
	// it answers "what does this directory cost on disk".
	Bytes int64 `json:"bytes"`
	// CorruptFiles counts files that failed to decode.
	CorruptFiles int64 `json:"corrupt_files"`
	// Tenants counts intact entries per tenant.
	Tenants map[string]int64 `json:"tenants,omitempty"`
}

// Add accumulates other into s (for merging per-replica snapshots).
func (s *StoreStats) Add(o StoreStats) {
	s.Entries += o.Entries
	s.Transferred += o.Transferred
	s.Bytes += o.Bytes
	s.CorruptFiles += o.CorruptFiles
	if o.Tenants != nil && s.Tenants == nil {
		s.Tenants = make(map[string]int64, len(o.Tenants))
	}
	for t, n := range o.Tenants {
		s.Tenants[t] += n
	}
}

// Stats reports the store directory's census. It reuses DonorPool's index
// scan, so it lists and stats every file but decodes only new or changed
// ones.
func (s *Store) Stats() (StoreStats, error) {
	st := StoreStats{}
	for _, r := range s.refresh() {
		if r.fi != nil {
			st.Bytes += r.fi.Size()
		}
		if r.readErr || r.corrupt {
			st.CorruptFiles++
			continue
		}
		st.Entries++
		if r.transferred {
			st.Transferred++
		}
		if st.Tenants == nil {
			st.Tenants = make(map[string]int64)
		}
		st.Tenants[r.key.Tenant]++
	}
	return st, nil
}
