package modelstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/transfer"
)

// The index behind DonorPool and Stats must be invisible: after any
// sequence of writes — through the handle or around it — both answer
// exactly what a fresh Load of the directory implies. The references
// below derive the two answers from Load the way the pre-index store
// computed them.

// refDonorPool is the donor pool a fresh Load implies.
func refDonorPool(t *testing.T, s *Store, exclude Key) []transfer.Donor {
	t.Helper()
	entries, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	var donors []transfer.Donor
	for _, e := range entries {
		if e.Key == exclude || e.Transfer != "" || len(e.Points) < 2 {
			continue
		}
		donors = append(donors, transfer.Donor{ID: DonorID(e.Key), Points: e.Points})
	}
	sort.Slice(donors, func(i, j int) bool { return donors[i].ID < donors[j].ID })
	return donors
}

// refStats is the census a fresh Load implies: bytes over every *.points
// file, corrupt included.
func refStats(t *testing.T, s *Store) StoreStats {
	t.Helper()
	entries, corrupt, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(s.Dir(), "*.points"))
	if err != nil {
		t.Fatal(err)
	}
	st := StoreStats{CorruptFiles: int64(len(corrupt))}
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			st.Bytes += fi.Size()
		}
	}
	for _, e := range entries {
		st.Entries++
		if e.Transfer != "" {
			st.Transferred++
		}
		if st.Tenants == nil {
			st.Tenants = make(map[string]int64)
		}
		st.Tenants[e.Key.Tenant]++
	}
	return st
}

// checkIndex compares DonorPool (for each exclude key) and Stats with the
// references.
func checkIndex(t *testing.T, step string, s *Store, excludes ...Key) {
	t.Helper()
	for _, ex := range excludes {
		got, err := s.DonorPool(ex)
		if err != nil {
			t.Fatalf("%s: DonorPool: %v", step, err)
		}
		want := refDonorPool(t, s, ex)
		if len(got) != len(want) {
			t.Fatalf("%s: DonorPool(%s): %d donors, want %d", step, ex.Device, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || !reflect.DeepEqual(got[i].Points, want[i].Points) {
				t.Fatalf("%s: DonorPool(%s)[%d] = %s %v, want %s %v",
					step, ex.Device, i, got[i].ID, got[i].Points, want[i].ID, want[i].Points)
			}
		}
	}
	got, err := s.Stats()
	if err != nil {
		t.Fatalf("%s: Stats: %v", step, err)
	}
	if want := refStats(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Stats = %+v, want %+v", step, got, want)
	}
}

// sweepPoints is a 12-point power-law curve whose shape and scale vary
// with r, so every write changes the points.
func sweepPoints(r *rand.Rand) []core.Point {
	sizes := core.LogSizes(16, 5000, 12)
	scale, exp := 0.5+r.Float64(), 0.9+0.3*r.Float64()
	pts := make([]core.Point, len(sizes))
	for i, d := range sizes {
		pts[i] = core.Point{D: d, Time: scale * 1e-6 * math.Pow(float64(d), exp), Reps: 1 + r.Intn(5)}
	}
	return pts
}

// flipDigit rewrites one digit of a data line in place: same size, same
// inode, different points. The mtime is restored to mtime, as
// if the write had landed within the same timestamp tick.
func flipDigit(t *testing.T, path string, mtime time.Time) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last data line is the one before the "# end:" trailer; flip the
	// leading digit of its size field.
	end := len(data) - 1
	for data[end-1] != '\n' {
		end--
	}
	pos := end - 1
	for pos > 0 && data[pos-1] != '\n' {
		pos--
	}
	b := data[pos]
	if b < '1' || b > '9' {
		t.Fatalf("unexpected size field byte %q", b)
	}
	nb := b + 1
	if b == '9' {
		nb = '1'
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{nb}, int64(pos)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// TestIndexDifferentialAgainstLoad runs a seeded sequence of store
// mutations — handle writes, external temp+rename writes, deletes,
// truncations, same-stamp byte flips inside the racy window and heals —
// and after every step demands DonorPool and Stats equal the references.
func TestIndexDifferentialAgainstLoad(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]Key, 8)
			for i := range keys {
				keys[i] = testKey(fmt.Sprintf("tenant-%d", i%3), fmt.Sprintf("dev-%d", i))
			}
			absent := testKey("cold", "never-stored")
			checkIndex(t, "empty", s, absent)
			ops := make(map[string]int)
			for step := 0; step < 120; step++ {
				k := keys[r.Intn(len(keys))]
				path := s.Path(k)
				_, statErr := os.Stat(path)
				exists := statErr == nil
				_, _, getErr := s.Get(k)
				var op string
				switch c := r.Intn(7); {
				case getErr != nil && c < 3:
					op = "heal"
					if err := s.Put(k, "k", sweepPoints(r)); err != nil {
						t.Fatal(err)
					}
				case c == 0 || !exists:
					op = "put"
					if err := s.Put(k, "k", sweepPoints(r)); err != nil {
						t.Fatal(err)
					}
				case c == 1:
					op = "put-transfer"
					if err := s.PutTransfer(k, "k", sweepPoints(r), fmt.Sprintf("donor=x scale=%d", step)); err != nil {
						t.Fatal(err)
					}
				case c == 2:
					op = "external-rename"
					data, err := encode(k, "ext", sweepPoints(r), "")
					if err != nil {
						t.Fatal(err)
					}
					tmp := filepath.Join(s.Dir(), ".ext-tmp")
					if err := os.WriteFile(tmp, data, 0o644); err != nil {
						t.Fatal(err)
					}
					if err := os.Rename(tmp, path); err != nil {
						t.Fatal(err)
					}
				case c == 3:
					op = "delete"
					if err := os.Remove(path); err != nil {
						t.Fatal(err)
					}
				case c == 4:
					op = "truncate"
					fi, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(path, fi.Size()/2); err != nil {
						t.Fatal(err)
					}
				case c == 5:
					// A fresh full sweep, cached by a scan while its mtime
					// is not safely old (a future mtime pins that, however
					// slowly the test runs), then a same-size in-place flip
					// that leaves the stamp unchanged.
					op = "racy-flip"
					if err := s.Put(k, "k", sweepPoints(r)); err != nil {
						t.Fatal(err)
					}
					mtime := time.Now().Add(time.Hour)
					if err := os.Chtimes(path, mtime, mtime); err != nil {
						t.Fatal(err)
					}
					checkIndex(t, fmt.Sprintf("step %d racy-flip (cached)", step), s, absent, k)
					flipDigit(t, path, mtime)
				default:
					op = "put"
					if err := s.Put(k, "k", sweepPoints(r)); err != nil {
						t.Fatal(err)
					}
				}
				ops[op]++
				checkIndex(t, fmt.Sprintf("step %d %s %s", step, op, k.Device), s, absent, k)
			}
			for _, op := range []string{"put", "put-transfer", "external-rename", "delete", "truncate", "racy-flip", "heal"} {
				if ops[op] == 0 {
					t.Errorf("the sequence never ran %s: %v", op, ops)
				}
			}
		})
	}
}

// TestIndexRacyByteFlip pins the racy-clean rule on its own: a file cached
// while its mtime was fresh is re-read even though its stamp is unchanged.
func TestIndexRacyByteFlip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("warm", "flipped")
	if err := s.Put(k, "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	mtime := time.Now().Add(racySlack / 2)
	if err := os.Chtimes(s.Path(k), mtime, mtime); err != nil {
		t.Fatal(err)
	}
	absent := testKey("cold", "new")
	checkIndex(t, "before flip", s, absent)
	flipDigit(t, s.Path(k), mtime)
	checkIndex(t, "after flip", s, absent)
}

// TestIndexTrustsAgedStamp: a file whose mtime is safely older than the
// scan that cached it is not re-read while its stamp (size, mtime, inode)
// is unchanged — the saving the index exists for. A writer that rewrites
// in place and forges the old mtime is therefore not seen; any real change
// of size, mtime or file is.
func TestIndexTrustsAgedStamp(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("warm", "aged")
	if err := s.Put(k, "k", curvePoints(1)); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(s.Path(k), old, old); err != nil {
		t.Fatal(err)
	}
	absent := testKey("cold", "new")
	before, err := s.DonorPool(absent)
	if err != nil || len(before) != 1 {
		t.Fatalf("donor pool: %v %v", before, err)
	}
	flipDigit(t, s.Path(k), old)
	after, err := s.DonorPool(absent)
	if err != nil || len(after) != 1 {
		t.Fatalf("donor pool: %v %v", after, err)
	}
	if &after[0].Points[0] != &before[0].Points[0] {
		t.Fatal("an unchanged aged stamp should be served from the index, not re-read")
	}
	// A real change of mtime is seen.
	if err := os.Chtimes(s.Path(k), old.Add(time.Second), old.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "after touch", s, absent)
}

// TestIndexConcurrentDonorPoolStats drives DonorPool and Stats from
// several goroutines while others write through the handle and delete
// files behind its back (run it under -race). Every answer must be
// internally consistent, and once the writers stop both must equal the
// references.
func TestIndexConcurrentDonorPoolStats(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 12)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("tenant-%d", i%3), fmt.Sprintf("dev-%d", i))
		if err := s.Put(keys[i], "k", curvePoints(float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	absent := testKey("cold", "new")
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				donors, err := s.DonorPool(absent)
				if err != nil {
					errs <- err
					return
				}
				for i, d := range donors {
					if len(d.Points) < 2 || (i > 0 && donors[i-1].ID > d.ID) {
						errs <- fmt.Errorf("inconsistent donor pool at %d: %s (%d points)", i, d.ID, len(d.Points))
						return
					}
				}
				st, err := s.Stats()
				if err != nil {
					errs <- err
					return
				}
				if st.Entries < 0 || st.Entries > int64(len(keys)) || st.Transferred > st.Entries {
					errs <- fmt.Errorf("inconsistent census %+v", st)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 150; i++ {
				k := keys[r.Intn(len(keys))]
				if g == 0 {
					prov := ""
					if i%3 == 0 {
						prov = "donor=x scale=1"
					}
					if err := s.PutTransfer(k, "k", sweepPoints(r), prov); err != nil {
						errs <- err
						return
					}
				} else if err := os.Remove(s.Path(k)); err != nil && !os.IsNotExist(err) {
					errs <- err
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkIndex(t, "after the storm", s, absent, keys[0])
}
