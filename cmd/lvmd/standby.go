package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lvm/internal/lease"
	"lvm/internal/logship"
	"lvm/internal/lvmd"
)

// runStandby follows a primary lvmd: one subscribed marker-tracking
// replica per shard, kept connected (with the bounded-retry dialer)
// until promotion or shutdown. Lease expiry is the only trigger: each
// replica feeds a lease monitor from the heartbeat frames the primary
// broadcasts down its subscription stream (shCfg.LeaseTTL, which main
// requires to be positive), and when every shard's lease has run out —
// the primary died, wedged, or was partitioned away, and by the lease
// rule has already demoted itself — the standby promotes with no
// operator involvement. A monitor that never heard a beat never
// expires, so a standby that never reached its primary stays down.
//
// Promotion goes through lvmd.Failover, the code the failover crash
// templates prove: every shard replica rolls back to its last
// transaction boundary and is promoted at its acked watermark, and the
// promoted images boot a serving daemon on this process's own address
// and data directory, fenced one epoch above the dead primary. With the
// primary running -sync-replicas, an acknowledged commit implies a
// replicated commit, so the promoted daemon holds every acked write: a
// saved lvmload model replays against it with zero mismatches.
// SIGTERM/SIGINT exits without promoting.
func runStandby(upstream string, shards int, shCfg lvmd.ShardConfig,
	out io.Writer, serve func(boot []lvmd.BootShard) int) int {
	arenaSize, err := shCfg.Core.ArenaSize()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
		return 1
	}
	dialStop := make(chan struct{}) // cancels retry schedules mid-backoff
	reps := make([]*logship.Replica, shards)
	for i := range reps {
		dial := lvmd.SubscribeDialer(
			logship.TCPDialerWith(upstream, logship.RetryConfig{Stop: dialStop}), uint32(i))
		if reps[i], err = logship.NewReplica(dial, arenaSize); err != nil {
			fmt.Fprintf(os.Stderr, "lvmd: shard %d replica: %v\n", i, err)
			return 1
		}
		reps[i].TrackMarkers(lvmd.MarkerLimit)
	}
	fo := lvmd.NewFailover(lease.Wall{}, lease.Ticks(shCfg.LeaseTTL), reps...)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, r := range reps {
		wg.Add(1)
		go func(r *logship.Replica) {
			defer wg.Done()
			for !stop.Load() {
				if err := r.Connect(); err != nil {
					if errors.Is(err, logship.ErrDialStopped) {
						return
					}
					// The dialer already retried with backoff; pause before
					// the next round so a dead upstream isn't hammered.
					select {
					case <-time.After(500 * time.Millisecond):
					case <-dialStop:
						return
					}
					continue
				}
				if stop.Load() {
					r.Kill()
					return
				}
				// The replica is single-owner: only this goroutine may touch
				// it while connected, so teardown asks (dialStop) and the
				// Kill happens here rather than from the main goroutine.
				select {
				case <-r.Done():
				case <-dialStop:
					r.Kill()
					return
				}
			}
		}(r)
	}

	// The signal handler is installed before the banners print, so a test
	// (or operator script) that waits for a banner may signal safely.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	stopFollowing := func() {
		signal.Stop(sig)
		stop.Store(true)
		close(dialStop)
		wg.Wait()
	}
	tick := time.NewTicker(max(shCfg.LeaseTTL/4, time.Millisecond))
	defer tick.Stop()
	fmt.Fprintf(out, "lvmd: standby lease detection armed (ttl=%v): expiry promotes automatically\n", shCfg.LeaseTTL)
	fmt.Fprintf(out, "lvmd: standby following %s with %d shard replicas\n", upstream, shards)

	for !fo.Expired() {
		select {
		case <-sig:
			stopFollowing()
			fmt.Fprintln(out, "lvmd: standby exiting without promotion")
			return 0
		case <-tick.C:
		}
	}
	stopFollowing()
	fmt.Fprintln(out, "lvmd: primary lease expired on every shard: promoting automatically")
	boot, err := fo.Promote(logship.PromoteHooks{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lvmd: %v\n", err)
		return 1
	}
	for i, b := range boot {
		fmt.Fprintf(out, "lvmd: shard %d promoted at watermark %d (seq=%d epoch=%d rolled=%d)\n",
			i, reps[i].LastSeq(), b.Seq, b.Epoch, reps[i].Stats.RolledBack.Load())
	}
	return serve(boot)
}
