package clustertest_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"cognicryptgen/internal/faultinject"
	"cognicryptgen/internal/loadgen"
)

// TestClusterChaosNodeKillFailover is the headline drill, run through the
// same implementation and contract as the E13 benchmark stage: a 3-node
// cluster under continuous SDK load has the owner of a working-set key
// killed mid-run and later restarted. loadgen.RunChaos fails unless the
// survivors re-admit the restarted node, it sees its peers healthy, and
// the SDK's breaker for it closes again; Check requires zero lost
// requests, byte-identical output, retries spent on the outage, and
// recovery within two probe rounds. Afterwards goroutines must return to
// baseline — kills and restarts must not leak probers or workers.
func TestClusterChaosNodeKillFailover(t *testing.T) {
	defer faultinject.Reset()
	baseline := runtime.NumGoroutine()

	res, err := loadgen.RunChaos(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("%v\n%+v", err, res)
	}
	t.Logf("%+v", res)

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never returned to baseline: %d now, %d before the drill", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
