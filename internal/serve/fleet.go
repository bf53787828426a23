// Fleet is the serving front door: a pool of replicas, each a full
// server (bounded admission, dynamic batcher, least-loaded device
// dispatch) over a private multigpu.Cluster shard, behind a router
// that picks by consistent hash or least load. Priority classes shed
// low-value traffic first under pressure, and an autoscaler grows and
// shrinks the pool off the plane's SLO burn-rate monitor.

package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/multigpu"
	"gpucnn/internal/obs"
	"gpucnn/internal/telemetry"
)

// FleetOptions configures a Fleet. Zero values take the documented
// defaults.
type FleetOptions struct {
	// Replicas is the initial replica count. Default: Autoscale.Min
	// (itself defaulted to 1).
	Replicas int
	// ShardDevices is the device count of each replica's private
	// cluster shard. Default 2.
	ShardDevices int
	// Spec is the simulated device model. Default gpusim.TeslaK40c().
	Spec gpusim.DeviceSpec
	// Server configures every replica. Its SLO drives the fleet's
	// monitor (e2e-p99, shed-rate), registered when Obs is set. Every
	// replica writes the plane's registry under its own replica label,
	// and the objectives read each serve_* family across all of them.
	Server Options
	// Route picks the front-door policy. Default RouteLeastLoaded.
	Route RoutePolicy
	// HashVnodes is the consistent-hash virtual-node count per replica.
	// Default 64.
	HashVnodes int
	// Autoscale bounds and paces the autoscaler.
	Autoscale AutoscaleConfig
}

func (o FleetOptions) withDefaults() FleetOptions {
	o.Autoscale = o.Autoscale.withDefaults()
	if o.Replicas <= 0 {
		o.Replicas = o.Autoscale.Min
	}
	if o.Replicas < o.Autoscale.Min {
		o.Replicas = o.Autoscale.Min
	}
	if o.Replicas > o.Autoscale.Max {
		o.Replicas = o.Autoscale.Max
	}
	if o.ShardDevices <= 0 {
		o.ShardDevices = 2
	}
	if o.Spec.Name == "" {
		o.Spec = gpusim.TeslaK40c()
	}
	if o.HashVnodes <= 0 {
		o.HashVnodes = defaultVnodes
	}
	return o
}

// replica is one fleet member: a server over its private shard.
type replica struct {
	id  int
	srv *server
}

// Fleet is a pool of serving replicas behind one routed front door.
type Fleet struct {
	opts    FleetOptions
	plane   *obs.Plane
	monitor *obs.Monitor
	scaler  *Autoscaler

	mu       sync.RWMutex
	replicas map[int]*replica
	order    []int // live replica ids, ascending
	ring     *hashRing
	nextID   int
	closed   bool
}

// FleetStats aggregates the replica counters.
type FleetStats struct {
	Replicas   int
	Total      Stats
	PerReplica map[int]Stats
}

// NewFleet builds and starts the initial replica pool, registers the
// SLO monitor on the plane (when Server.Obs is set), and
// launches the autoscaler loop (when its interval applies — see
// AutoscaleConfig).
func NewFleet(opts FleetOptions) (*Fleet, error) {
	opts = opts.withDefaults()
	f := &Fleet{
		opts:     opts,
		plane:    opts.Server.Obs,
		replicas: map[int]*replica{},
		ring:     newHashRing(opts.HashVnodes),
	}
	if slo := opts.Server.SLO.withDefaults(); f.plane != nil {
		f.monitor = obs.NewMonitor(obs.MonitorConfig{
			Clock: f.plane.Clock(), Fast: slo.Fast, Slow: slo.Slow, Interval: slo.Interval,
		}, servingObjectives(f.plane.Registry(), slo)...)
		f.plane.Watch(f.monitor)
	}
	f.mu.Lock()
	for i := 0; i < opts.Replicas; i++ {
		if err := f.addReplicaLocked(); err != nil {
			f.mu.Unlock()
			f.Close()
			return nil, err
		}
	}
	f.mu.Unlock()
	f.plane.Section("fleet", f.dashSection)
	f.scaler = newAutoscaler(f, opts.Autoscale)
	return f, nil
}

// addReplicaLocked builds, starts and enrolls one replica. Caller
// holds f.mu.
func (f *Fleet) addReplicaLocked() error {
	id := f.nextID
	f.nextID++
	cl := multigpu.New(f.opts.ShardDevices, f.opts.Spec)
	srv, err := newServer(cl, f.opts.Server, telemetry.Labels{"replica": strconv.Itoa(id)})
	if err != nil {
		return fmt.Errorf("serve: fleet replica %d: %w", id, err)
	}
	srv.start()
	f.replicas[id] = &replica{id: id, srv: srv}
	f.order = append(f.order, id)
	sort.Ints(f.order)
	f.ring.rebuild(f.order)
	return nil
}

// scaleOut adds one replica and returns the new size (or the current
// size and an error after close / at the bound).
func (f *Fleet) scaleOut() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return len(f.order), ErrClosed
	}
	if len(f.order) >= f.opts.Autoscale.Max {
		return len(f.order), fmt.Errorf("serve: fleet at max replicas %d", f.opts.Autoscale.Max)
	}
	if err := f.addReplicaLocked(); err != nil {
		return len(f.order), err
	}
	return len(f.order), nil
}

// scaleIn drains and removes the replica with the given id, returning
// the new size. The replica leaves the routing membership first, then
// closes outside the fleet lock so its queued requests finish serving
// while new traffic already lands elsewhere.
func (f *Fleet) scaleIn(id int) int {
	f.mu.Lock()
	r, ok := f.replicas[id]
	if !ok || f.closed || len(f.order) <= f.opts.Autoscale.Min {
		n := len(f.order)
		f.mu.Unlock()
		return n
	}
	delete(f.replicas, id)
	for i, v := range f.order {
		if v == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.ring.rebuild(f.order)
	n := len(f.order)
	f.mu.Unlock()
	r.srv.Close()
	return n
}

// route picks a replica for the key under the configured policy.
// Caller holds f.mu (read).
func (f *Fleet) route(key string) *replica {
	if len(f.order) == 0 {
		return nil
	}
	if f.opts.Route == RouteHash {
		if id, ok := f.ring.pick(key); ok {
			return f.replicas[id]
		}
		return nil
	}
	var best *replica
	var bestLoad int64
	for _, id := range f.order {
		r := f.replicas[id]
		if l := r.srv.Load(); best == nil || l < bestLoad {
			best, bestLoad = r, l
		}
	}
	return best
}

// Submit routes one single-image request to a replica and blocks until
// it is served, shed, or ctx is cancelled. A replica closed by a
// concurrent scale-in is retried once against the new membership.
func (f *Fleet) Submit(ctx context.Context, key string, pr Priority) (Result, error) {
	for attempt := 0; ; attempt++ {
		f.mu.RLock()
		if f.closed {
			f.mu.RUnlock()
			return Result{}, ErrClosed
		}
		r := f.route(key)
		f.mu.RUnlock()
		if r == nil {
			return Result{}, ErrOverloaded
		}
		res, err := r.srv.submit(ctx, pr)
		if errors.Is(err, ErrClosed) && attempt == 0 {
			continue // raced a scale-in; the membership has moved on
		}
		return res, err
	}
}

// Size returns the live replica count.
func (f *Fleet) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.order)
}

// ReplicaIDs returns the live replica ids, ascending.
func (f *Fleet) ReplicaIDs() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]int(nil), f.order...)
}

// Monitor returns the fleet's SLO monitor (nil without a plane).
func (f *Fleet) Monitor() *obs.Monitor { return f.monitor }

// Autoscaler returns the fleet's autoscaler.
func (f *Fleet) Autoscaler() *Autoscaler { return f.scaler }

// Options returns the resolved (defaulted) fleet options.
func (f *Fleet) Options() FleetOptions { return f.opts }

// Stats aggregates every live replica's counters. Replicas already
// scaled in are not represented — the fleet-wide monotonic view lives
// in the plane's registry.
func (f *Fleet) Stats() FleetStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := FleetStats{Replicas: len(f.order), PerReplica: map[int]Stats{}}
	for _, id := range f.order {
		s := f.replicas[id].srv.Stats()
		st.PerReplica[id] = s
		st.Total.Submitted += s.Submitted
		st.Total.Rejected += s.Rejected
		st.Total.Completed += s.Completed
		st.Total.Failed += s.Failed
	}
	return st
}

// dashSection feeds the plane's "fleet" dashboard section.
func (f *Fleet) dashSection() map[string]any {
	f.mu.RLock()
	defer f.mu.RUnlock()
	sec := map[string]any{
		"replicas":      len(f.order),
		"route":         f.opts.Route.String(),
		"shard_devices": f.opts.ShardDevices,
		"min":           f.opts.Autoscale.Min,
		"max":           f.opts.Autoscale.Max,
	}
	for _, id := range f.order {
		r := f.replicas[id]
		sec[fmt.Sprintf("replica%d_load", id)] = r.srv.Load()
		sec[fmt.Sprintf("replica%d_queue", id)] = r.srv.QueueDepth()
	}
	return sec
}

// Close stops the autoscaler, drains and closes every replica, and
// retires the fleet monitor from the plane. Safe to call twice.
func (f *Fleet) Close() {
	f.scaler.stop()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	victims := make([]*replica, 0, len(f.order))
	for _, id := range f.order {
		victims = append(victims, f.replicas[id])
	}
	f.replicas = map[int]*replica{}
	f.order = nil
	f.mu.Unlock()
	for _, r := range victims {
		r.srv.Close()
	}
	f.monitor.Stop()
	f.plane.Unwatch(f.monitor)
}
