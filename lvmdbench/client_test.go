package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

func testServer(t *testing.T, dir string) (*lvmd.Server, logship.DialFunc) {
	t.Helper()
	srv, err := lvmd.NewServer(lvmd.ServerConfig{
		Dir:    dir,
		Shards: numShards,
		Shard: lvmd.ShardConfig{Core: lvmd.CoreConfig{Slots: slotsFlag, SlotSize: slotSize,
			LogPages: 256, AbsorbWindow: 8, GroupSize: 8, GroupDeadline: 1024}},
		StallTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, dial := logship.NewMemTransport()
	srv.Serve(ln)
	return srv, dial
}

// toLvmdModel converts the acked model into lvmd's own model form, so
// lvmd.VerifyModel — the check lvmload relies on — can judge it.
func toLvmdModel(m *model) *lvmd.Model {
	out := &lvmd.Model{}
	for seg := uint64(1); seg <= numSegments; seg++ {
		for w, v := range m.words[seg] {
			if v != 0 {
				out.Entries = append(out.Entries, lvmd.ModelEntry{
					Seg: seg, Off: uint32(4 * w), Acked: v, HasAck: true})
			}
		}
	}
	return out
}

// TestPipelinedModelReadsBackClean drives every workload mix open-loop
// through the pipelined client against an in-process daemon, then
// checks the acked model both with the client's own whole-segment
// read-back and with lvmd.VerifyModel over lvmd.Client, across a drain
// and restart.
func TestPipelinedModelReadsBackClean(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, dial := testServer(t, dir)
			m := newModel(7)
			f, err := dialFleet(dial, m)
			if err != nil {
				t.Fatal(err)
			}
			g := newGen(wl, 7)
			n := 400
			if wl.stores > 4 {
				n = 60
			}
			rec, err := f.run(g.schedule(n, 4000, wl.readFrac), 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if rec.attempted != n || rec.failed != 0 || len(rec.commitLat)+len(rec.readLat) != n {
				t.Fatalf("phase: attempted %d failed %d answered %d: %v",
					rec.attempted, rec.failed, len(rec.commitLat)+len(rec.readLat), rec.errs)
			}
			if rec.commits == 0 {
				t.Fatal("no commits acked")
			}
			back, err := f.readBack(10 * time.Second)
			if err != nil || back.failed != 0 {
				t.Fatalf("read-back: %v %v", err, back.errs)
			}
			f.close()

			checked, bad, err := lvmd.VerifyModel(dial, toLvmdModel(m))
			if err != nil || len(bad) > 0 || checked == 0 {
				t.Fatalf("VerifyModel: checked %d, %v, %v", checked, err, bad)
			}
			if rep := srv.Drain(); !rep.Drained || rep.Host.BadFrames != 0 {
				t.Fatalf("drain: %+v", rep.Host)
			}

			srv2, dial2 := testServer(t, dir)
			defer srv2.Drain()
			f2, err := dialFleet(dial2, m)
			if err != nil {
				t.Fatal(err)
			}
			defer f2.close()
			back, err = f2.readBack(10 * time.Second)
			if err != nil || back.failed != 0 {
				t.Fatalf("read-back after restart: %v %v", err, back.errs)
			}
		})
	}
}

// TestClientParksSameSegmentCommits parks commits behind an
// in-flight commit to the same segment: every op must still be answered
// once, in order, and the model must read back.
func TestClientParksSameSegmentCommits(t *testing.T) {
	srv, dial := testServer(t, t.TempDir())
	defer srv.Drain()
	m := newModel(3)
	f, err := dialFleet(dial, m)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	g := newGen(workloads[0], 3)
	ops := g.schedule(200, 1e6, 0.3) // all due at once
	for i := range ops {
		ops[i].seg = uint64(1 + i%3)
	}
	rec, err := f.run(ops, 10*time.Second)
	if err != nil || rec.failed != 0 || rec.attempted != len(ops) {
		t.Fatalf("run: %v failed %d attempted %d %v", err, rec.failed, rec.attempted, rec.errs)
	}
	if back, err := f.readBack(10 * time.Second); err != nil || back.failed != 0 {
		t.Fatalf("read-back: %v %v", err, back.errs)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the
// metrics this program reports in step: same names, same units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
		Workloads []named
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec []named
		have map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(c.spec) != len(c.have) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.spec), len(c.have))
		}
		for _, m := range c.spec {
			if unit, ok := c.have[m.Name]; !ok || unit != m.Unit {
				t.Errorf("metric %s (%s): program reports unit %q", m.Name, m.Unit, unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
}
