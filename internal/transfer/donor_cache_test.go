package transfer_test

import (
	"fmt"
	"math"
	"testing"

	"fupermod/internal/core"
	"fupermod/internal/transfer"
	"fupermod/internal/verify"
)

// TestRankCachedFingerprintsMatchLiteral: ranking donors built by NewDonor
// (fingerprint computed once) is indistinguishable from ranking literal
// donors (fingerprint computed per call) — same IDs, same points, same
// order, bitwise-equal distances — over every verify speed shape, with
// probe sets both fingerprintable and not, and with donors that cannot be
// fingerprinted mixed in.
func TestRankCachedFingerprintsMatchLiteral(t *testing.T) {
	sizes := core.LogSizes(16, 60000, 40)
	for seed := int64(1); seed <= 4; seed++ {
		procs := verify.NewGen(seed).Platform(24, verify.Shapes()...)
		var literal, cached []transfer.Donor
		add := func(id string, pts []core.Point) {
			literal = append(literal, transfer.Donor{ID: id, Points: pts})
			cached = append(cached, transfer.NewDonor(id, pts))
		}
		for i, p := range procs {
			pts := make([]core.Point, len(sizes))
			for j, d := range sizes {
				pts[j] = core.Point{D: d, Time: math.Max(p.Time(float64(d)), 1e-12), Reps: 1}
			}
			add(fmt.Sprintf("%s-%d", p.Name, i), pts)
		}
		// Unfingerprintable donors: one distinct size only.
		add("flat", []core.Point{{D: 64, Time: 1, Reps: 1}, {D: 64, Time: 2, Reps: 1}})
		add("single", []core.Point{{D: 64, Time: 1, Reps: 1}})

		for pi, target := range procs[:6] {
			probes := make([]core.Point, 0, 4)
			for _, j := range []int{0, 13, 26, 39} {
				d := sizes[j]
				probes = append(probes, core.Point{D: d, Time: 3 * math.Max(target.Time(float64(d)), 1e-12), Reps: 1})
			}
			if pi == 0 {
				probes = probes[:1] // cannot be fingerprinted: every distance is 0
			}
			for _, max := range []int{0, 4} {
				want := transfer.Rank(literal, probes, max)
				got := transfer.Rank(cached, probes, max)
				if len(got) != len(want) {
					t.Fatalf("seed %d probe %d max %d: %d candidates, want %d", seed, pi, max, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Donor.ID != w.Donor.ID || &g.Donor.Points[0] != &w.Donor.Points[0] ||
						math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
						t.Fatalf("seed %d probe %d max %d rank %d: got %s %v, want %s %v",
							seed, pi, max, i, g.Donor.ID, g.Distance, w.Donor.ID, w.Distance)
					}
				}
			}
		}
	}
}
