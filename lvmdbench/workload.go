package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Geometry shared by the daemon flags, the generator and the replay.
const (
	numShards   = 4
	numSegments = 256
	slotsFlag   = 128  // tenant slots per shard: room for the hash skew of 256 segments
	slotSize    = 4096 // bytes per tenant segment
	slotWords   = slotSize / 4
	readWords   = 4 // words per read op
	conns       = 2 // generator connections (one per CPU of the reference host)
	// logPages is -log-pages: a 1 MiB hardware log per shard compacts at
	// half full, so a run spans several compactions, and still holds a
	// whole batch of large commits past the trigger.
	logPages = 256
	// limitMS is the all-ops p95 latency that defines goodput.
	limitMS = 100
	// probeRate is the read probe's rate on the commit-only mixes.
	probeRate = 4000
)

// workload is one traffic mix. Rates are offered ops per second across
// all connections; the ladder's steps bracket the host's saturation knee.
type workload struct {
	name     string
	readFrac float64
	stores   int       // stores per commit
	zipf     bool      // Zipf(0.99) segment choice instead of uniform
	sync     bool      // primary runs -sync-replicas with a subscribed standby
	rate     float64   // nominal offered rate, ops/s
	ladder   []float64 // offered rates, ascending, ops/s
	preload  int       // ops written before the SIGKILL that setup_s recovers from
}

var workloads = []workload{
	{name: "commit-small", stores: 4, rate: 4000,
		ladder:  []float64{30000, 37500, 45000, 52500, 60000, 67500},
		preload: 20000},
	{name: "commit-large", stores: 256, rate: 800,
		ladder:  []float64{2500, 3000, 3500, 4000, 4500, 5000},
		preload: 1500},
	{name: "read-heavy", readFrac: 0.9, stores: 4, zipf: true, rate: 6000,
		ladder:  []float64{60000, 75000, 90000, 105000, 120000, 135000},
		preload: 20000},
	{name: "sync-replica", stores: 4, sync: true, rate: 2500,
		ladder:  []float64{22000, 28000, 34000, 40000, 46000, 52000},
		preload: 20000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one generated request. Commits write either four random
// distinct words or `stores` consecutive words from base; reads fetch
// nwords words from base.
type op struct {
	due    time.Duration // offset from the phase start
	id     uint32        // run-unique: the commit's clientSeq and the source of its values
	seg    uint64
	read   bool
	base   uint16
	nwords uint16 // read length or consecutive-store count
	offs   [4]uint16
}

// each calls fn with every (word, value) pair the commit stores.
func (o *op) each(seed int64, fn func(word uint32, val uint32)) {
	if o.nwords == 0 {
		for k, w := range o.offs {
			fn(uint32(w), value(seed, o.id, k))
		}
		return
	}
	for k := 0; k < int(o.nwords); k++ {
		fn(uint32(o.base)+uint32(k), value(seed, o.id, k))
	}
}

func (o *op) storeCount() int {
	if o.read {
		return 0
	}
	if o.nwords == 0 {
		return len(o.offs)
	}
	return int(o.nwords)
}

// value is the word a commit stores: a seeded hash of (op, store index),
// never zero so a lost write cannot pass for an untouched word.
func value(seed int64, id uint32, k int) uint32 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(id)<<10 ^ uint64(k)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x) | 1
}

// gen produces a workload's op stream from its seed. The segment
// distribution's shape is fixed (rank r is segment r+1), so seeds change
// which ops run, not how skewed the load is.
type gen struct {
	wl     workload
	seed   int64
	rng    *rand.Rand
	cdf    []float64
	nextID uint32
}

func newGen(wl workload, seed int64) *gen {
	g := &gen{wl: wl, seed: seed, rng: rand.New(rand.NewSource(seed)), nextID: 1}
	if wl.zipf {
		g.cdf = make([]float64, numSegments)
		sum := 0.0
		for r := range g.cdf {
			sum += 1 / math.Pow(float64(r+1), 0.99)
			g.cdf[r] = sum
		}
		for r := range g.cdf {
			g.cdf[r] /= sum
		}
	}
	return g
}

func (g *gen) segment() uint64 {
	if g.cdf == nil {
		return uint64(g.rng.Intn(numSegments)) + 1
	}
	return uint64(sort.SearchFloat64s(g.cdf, g.rng.Float64())) + 1
}

// next draws one op of the workload's mix.
func (g *gen) next(readFrac float64) op {
	o := op{id: g.nextID, seg: g.segment()}
	g.nextID++
	switch {
	case g.rng.Float64() < readFrac:
		o.read = true
		o.nwords = readWords
		o.base = uint16(g.rng.Intn(slotWords - readWords + 1))
	case g.wl.stores == len(o.offs):
		for k := 0; k < len(o.offs); {
			w := uint16(g.rng.Intn(slotWords))
			dup := false
			for _, prev := range o.offs[:k] {
				dup = dup || prev == w
			}
			if !dup {
				o.offs[k] = w
				k++
			}
		}
	default:
		o.nwords = uint16(g.wl.stores)
		o.base = uint16(g.rng.Intn(slotWords - g.wl.stores + 1))
	}
	return o
}

// schedule returns n ops of the given read fraction due at a constant
// rate: op i is due at i/rate.
func (g *gen) schedule(n int, rate, readFrac float64) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next(readFrac)
		ops[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return ops
}

// preload returns n commits of the workload's write mix due at a
// constant rate, dealt so each shard gets n/numShards of them. Each
// shard's log then holds the same number of records when the preload is
// SIGKILLed, whatever the seed, and so does every restart's recovery.
func (g *gen) preload(n int, rate float64) []op {
	per := n / numShards
	var quota [numShards]int
	ops := make([]op, 0, per*numShards)
	for len(ops) < cap(ops) {
		o := g.next(0)
		if sh := homeShard(o.seg); quota[sh] < per {
			quota[sh]++
			o.due = time.Duration(float64(len(ops)) / rate * float64(time.Second))
			ops = append(ops, o)
		}
	}
	return ops
}

// split deals ops to connections by segment, so each segment's ops stay
// in order on one connection and its state is owned by that connection.
func split(ops []op) [conns][]op {
	var out [conns][]op
	for _, o := range ops {
		c := int(o.seg % conns)
		out[c] = append(out[c], o)
	}
	return out
}

// homeShard is lvmd's segment→shard hash (the splitmix finalizer the
// daemon routes by), used to replay one shard's share of the stream.
func homeShard(seg uint64) int {
	h := seg
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int(h % numShards)
}
