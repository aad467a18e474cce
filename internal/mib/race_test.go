package mib

import (
	"sync"
	"testing"

	"mbd/internal/oid"
)

// TestTreeConcurrentMountAccess hammers mount-table mutation while the
// data path reads, verifying the copy-on-mount design: Get, GetNext and
// Walk must observe consistent snapshots (run under -race in CI).
func TestTreeConcurrentMountAccess(t *testing.T) {
	tree := &Tree{}
	stable := oid.MustParse("1.3.6.1.2.1.1.3")
	if err := tree.Mount(stable, ConstScalar(TimeTicks(42))); err != nil {
		t.Fatal(err)
	}
	scratch := oid.MustParse("1.3.6.1.4.1.9999.1")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			target := stable.Append(0)
			var buf oid.OID
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tree.Get(target); err != nil {
					t.Errorf("Get(%s): %v", target, err)
					return
				}
				next, _, err := tree.GetNextInto(buf[:0], stable)
				if err != nil {
					t.Errorf("GetNext(%s): %v", stable, err)
					return
				}
				buf = next
				if n := tree.Walk(stable, func(o oid.OID, v Value) bool { return true }); n != 1 {
					t.Errorf("Walk visited %d instances, want 1", n)
					return
				}
				// Walking the root sees whatever mounts exist right now;
				// the stable scalar must always be among them.
				seen := 0
				tree.Walk(oid.OID{1}, func(o oid.OID, v Value) bool {
					if o.HasPrefix(stable) {
						seen++
					}
					return true
				})
				if seen != 1 {
					t.Errorf("root walk saw the stable scalar %d times, want 1", seen)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if err := tree.Mount(scratch.Append(uint32(i)), ConstScalar(Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
