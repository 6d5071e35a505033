package clustertest

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"cognicryptgen/internal/faultinject"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// The cluster chaos suite: whole-cluster failure drills on real listeners
// — node kill/restart under live load (nodekill_test.go), peer-channel
// partitions, slow peers — asserting the cluster's contract holds through them: no
// accepted request is lost, output stays byte-identical, health
// converges after recovery, and nothing leaks.
//
// Faults are process-global, so none of these tests may call t.Parallel.

// chaosBase is the template body the chaos workloads derive their
// working-set keys from (resolved once; the template table is embedded).
var chaosBase = func() string {
	src, err := templates.Source(templates.UseCases[2])
	if err != nil {
		panic(err)
	}
	return src
}()

// waitForCond polls until cond returns true or the deadline
// passes.
func waitForCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("never converged: %s", what)
}

// TestClusterChaosPartitionFallback partitions one node's peer channel
// with a host-targeted transport fault: every forward and probe TO that
// host is refused while the node itself stays up. The other nodes must
// keep answering (local fallback), open their breakers for the
// partitioned peer (counting rejected forwards), and re-admit it when
// the partition heals.
func TestClusterChaosPartitionFallback(t *testing.T) {
	defer faultinject.Reset()

	cl, err := Start(3, service.Config{Workers: 2, CacheSize: 64, PeerProbeInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	partitioned := cl.Nodes[1]
	host := strings.TrimPrefix(partitioned.URL, "http://")
	point := faultinject.PointPeerTransport + "@" + host
	faultinject.Arm(point, faultinject.Fault{Mode: faultinject.ModeRefuse})
	defer faultinject.Disarm(point)

	// Requests to node 0 keep succeeding throughout the partition: keys
	// owned by the partitioned peer are generated locally.
	a := cl.Nodes[0].Srv
	round := 0
	sendRound := func() {
		t.Helper()
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("part-r%d-%02d.go", round, i)
			src := chaosBase + fmt.Sprintf("\n// partition %s\n", name)
			if _, err := a.Generate(ctx, wire.GenerateRequest{Name: name, Source: src}); err != nil {
				t.Fatalf("request during partition failed: %v", err)
			}
		}
		round++
	}
	// While the breaker is still closed, forwards to the partitioned owner
	// are attempted, refused, and served locally (forward_fallbacks). Once
	// the failure streak — forwards plus the refused 100ms probes — opens
	// the breaker, its keys stop being offered at all. Either way node 0
	// must keep answering; keep sending fresh keys until both effects are
	// observed. (Which comes first depends on scheduling, so neither order
	// is asserted.)
	waitForCond(t, 10*time.Second, "a forward falling back locally or being breaker-rejected", func() bool {
		sendRound()
		m := a.MetricsSnapshot()
		return m.ForwardFallbacks > 0 || m.BreakerRejects > 0
	})
	waitForCond(t, 5*time.Second, "breaker opening for the partitioned peer", func() bool {
		return a.MetricsSnapshot().Peers[partitioned.URL].BreakerState == "open"
	})
	// Fresh keys owned by the open peer are rejected-and-served-locally;
	// the rejection shows up in breaker_rejects.
	waitForCond(t, 5*time.Second, "breaker rejects being counted", func() bool {
		sendRound()
		return a.MetricsSnapshot().BreakerRejects > 0
	})

	// Heal the partition: probes succeed again and the peer is re-admitted
	// without a restart.
	faultinject.Disarm(point)
	waitForCond(t, 5*time.Second, "partitioned peer re-admitted after healing", func() bool {
		ps := a.MetricsSnapshot().Peers[partitioned.URL]
		return ps.Healthy && ps.BreakerState == "closed"
	})
}

// TestClusterChaosSlowPeerStaysAdmitted injects 300ms of latency into the
// whole peer channel while probing every 50ms: the probe timeout's 1s
// floor must keep slow-but-alive peers admitted. With the probe interval
// (mis)used as the timeout, three rounds of this would eject every peer.
func TestClusterChaosSlowPeerStaysAdmitted(t *testing.T) {
	defer faultinject.Reset()

	cl, err := Start(2, service.Config{Workers: 2, CacheSize: 64, PeerProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	faultinject.Arm(faultinject.PointPeerTransport, faultinject.Fault{
		Mode:    faultinject.ModeLatency,
		Latency: 300 * time.Millisecond,
	})
	defer faultinject.Disarm(faultinject.PointPeerTransport)

	// Several probe rounds (each slowed to ~300ms) must complete without
	// anyone being ejected.
	time.Sleep(900 * time.Millisecond)
	for i, n := range cl.Nodes {
		for peer, ps := range n.Srv.MetricsSnapshot().Peers {
			if !ps.Healthy {
				t.Errorf("node %d ejected slow-but-alive peer %s (%+v)", i, peer, ps)
			}
		}
	}
}
