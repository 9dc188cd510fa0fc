// Package engine owns the DNS scheduler's per-query decision
// lifecycle, shared verbatim by the discrete-event simulator and the
// live authoritative DNS server: membership/liveness/drain filtering
// and server selection (via core.Policy over immutable state
// snapshots), TTL assignment, the outstanding-mapping (hidden-load)
// ledger, and the estimator feedback loop that turns server hit
// reports into domain weights.
//
// The engine is parameterized by exactly two environment seams:
//
//   - a Clock — virtual time in the simulator, wall time live — and
//   - the policy's random stream (core.LockRand over any core.Rand),
//     injected when the policy is built.
//
// Everything else is identical on both paths, which is what the
// conformance suite asserts: the same recorded request stream fed to a
// sim-clocked engine and a wall-style (manually clocked) engine yields
// bit-identical (server, TTL) decision sequences for every policy.
//
// Decide is safe for concurrent callers and takes no engine-level
// lock: the policy schedules against atomically published snapshots
// and the ledger is CAS-max per slot. The estimator keeps mutable
// running sums and is serialized by its own mutex: reports and rolls
// take it on collection intervals; per query the reactive kind pays a
// nil check and the predictive kind takes it for an O(log W) window
// insert (DESIGN.md §14, "Cost of the tap", has the measured ceiling).
package engine

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"dnslb/internal/core"
)

// lockedEstimator serializes estimator mutations. Reports and rolls
// arrive on collection intervals and the one per-query holder, the
// predictive kind's decision tap, is a ≈50–100 ns insert, so one mutex
// suffices. fc is the estimator's Forecaster capability, type-asserted
// once at assembly: nil for the reactive kind, whose query path
// therefore pays only that nil check.
type lockedEstimator struct {
	mu  sync.Mutex
	est core.LoadEstimator
	fc  core.Forecaster
}

// Config assembles an Engine.
type Config struct {
	// Policy is the scheduling policy (selection + TTL assignment).
	// Required. Its Rand stream is the engine's second seam: inject a
	// deterministic stream for reproducibility, an entropy-seeded one
	// for production.
	Policy *core.Policy
	// Clock supplies current time in engine seconds. Required.
	Clock Clock
	// Estimator optionally closes the hidden-load feedback loop:
	// RecordHits accumulates per-domain hit reports and RollEstimates
	// installs the re-estimated weights into the scheduler state. Any
	// core.LoadEstimator kind plugs in here; when it also implements
	// core.Forecaster (the predictive kind), Decide feeds it every TTL
	// handout. Nil disables feedback (the simulator's oracle-weights
	// setting) — note a typed-nil pointer in an interface is NOT nil,
	// so callers must leave the field unset rather than assign a nil
	// concrete estimator.
	Estimator core.LoadEstimator
	// OnDecision, when non-nil, observes every successful decision in
	// scheduling order — the tap the conformance and replay tests
	// record from. It is called synchronously on the query path and
	// must be cheap and concurrency-safe on the live path.
	OnDecision func(domain int, d core.Decision)
	// Mapper classifies an address (a resolver's, or the address of an
	// ECS client subnet) into a connected-domain index; required for
	// DecideQuery, unused by Decide. It is called concurrently from the
	// query path and must be pure and lock-free.
	Mapper func(addr netip.Addr) int
	// ECS selects the RFC 7871 client-subnet mode DecideQuery applies
	// (see ECSMode); the zero value is passthrough.
	ECS ECSMode
}

// Engine is the unified decision lifecycle.
type Engine struct {
	policy      *core.Policy
	clock       Clock
	ledger      *Ledger
	est         *lockedEstimator // nil when feedback is disabled
	onDecision  func(domain int, d core.Decision)
	mapper      func(addr netip.Addr) int // nil: DecideQuery unavailable
	ecs         ECSMode
	estRejected atomic.Uint64 // hit reports the estimator refused
}

// New creates an engine with a ledger sized to the policy's cluster.
func New(cfg Config) (*Engine, error) {
	if cfg.Policy == nil {
		return nil, errors.New("engine: Policy is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("engine: Clock is required")
	}
	if cfg.ECS > ECSOverride {
		return nil, fmt.Errorf("engine: unknown ECS mode %d", cfg.ECS)
	}
	e := &Engine{
		policy:     cfg.Policy,
		clock:      cfg.Clock,
		ledger:     NewLedger(cfg.Policy.State().Snapshot().Cluster().N()),
		onDecision: cfg.OnDecision,
		mapper:     cfg.Mapper,
		ecs:        cfg.ECS,
	}
	if cfg.Estimator != nil {
		le := &lockedEstimator{est: cfg.Estimator}
		le.fc, _ = cfg.Estimator.(core.Forecaster)
		e.est = le
	}
	return e, nil
}

// Policy returns the engine's scheduling policy.
func (e *Engine) Policy() *core.Policy { return e.policy }

// State returns the scheduler state the engine reads and mutates.
func (e *Engine) State() *core.State { return e.policy.State() }

// Now returns the current engine time in seconds.
func (e *Engine) Now() float64 { return e.clock.Now() }

// Decide answers one address request from the given domain: it runs
// the policy (membership, liveness and drain filtering happen inside
// the selection, against one immutable state snapshot), assigns the
// adaptive TTL, and extends the chosen server's outstanding-mapping
// window to now+TTL. When every server is unavailable it returns
// core.ErrNoServers and touches nothing.
//
// Decide is safe for concurrent callers and may race freely with the
// state mutators and with membership changes.
func (e *Engine) Decide(domain int) (core.Decision, error) {
	now := e.clock.Now()
	d, err := e.policy.Schedule(domain)
	if err != nil {
		return d, err
	}
	e.ledger.Extend(d.Server, now+d.TTL)
	if e.est != nil && e.est.fc != nil {
		// Feed the TTL handout to the forecasting estimator: this is
		// the NS-cache model's input. Only the predictive kind takes
		// this lock on the query path, for one O(log W) insert; the
		// reactive kind's fc is nil.
		e.est.mu.Lock()
		e.est.fc.ObserveDecision(domain, now, d.TTL)
		e.est.mu.Unlock()
	}
	if e.onDecision != nil {
		e.onDecision(domain, d)
	}
	return d, nil
}

// Ledger returns the outstanding-mapping ledger.
func (e *Engine) Ledger() *Ledger { return e.ledger }

// NoteMapping extends server i's outstanding-mapping window to expire
// no earlier than expiry (engine seconds). Decide already notes
// now+TTL; callers use this for externally lengthened windows — a
// non-cooperative name server clamping the TTL up, or a checkpoint
// restore carrying a pre-restart window.
func (e *Engine) NoteMapping(server int, expiry float64) { e.ledger.Extend(server, expiry) }

// MappingExpiry returns the latest engine-clock instant at which a
// mapping handed to server i can still be cached downstream, or 0 when
// none was ever handed out — the earliest moment a drain of i may
// complete.
func (e *Engine) MappingExpiry(server int) float64 { return e.ledger.Expiry(server) }

// DrainDeadline returns when server i's hidden-load window closes:
// its largest outstanding mapping expiry, but never before now. It is
// the one drain rule: Drain and Retire, and through them the live
// server and the simulator, wait for it.
func (e *Engine) DrainDeadline(server int) float64 {
	now := e.clock.Now()
	if exp := e.ledger.Expiry(server); exp > now {
		return exp
	}
	return now
}

// AddServer admits a new server slot with the given capacity and
// returns its index. The ledger grows before the slot is published, so
// the first decision that picks the new server does not pay the
// ledger's copy-on-write growth.
func (e *Engine) AddServer(capacity float64) (int, error) {
	st := e.policy.State()
	e.ledger.Grow(st.Snapshot().Cluster().N() + 1)
	return st.AddServer(capacity)
}

// Drain starts a graceful retirement of server i: selectors stop
// handing it new mappings at once, and the returned DrainDeadline is
// the earliest instant Retire can remove it. For a server already
// draining it returns that server's deadline. The only schedulable
// server is refused (core.ErrLastSchedulable).
func (e *Engine) Drain(server int) (deadline float64, err error) {
	if err := e.policy.State().DrainServer(server); err != nil {
		return 0, err
	}
	return e.DrainDeadline(server), nil
}

// Retire removes draining server i from membership once its
// hidden-load window has closed, and then returns 0. A decision in
// flight when the drain started may have moved the window past now;
// Retire then keeps the slot and returns the later deadline to retry
// at. A server that is not draining is an error.
func (e *Engine) Retire(server int) (later float64, err error) {
	st := e.policy.State()
	if !st.Snapshot().Draining(server) {
		return 0, fmt.Errorf("engine: retire of server %d, which is not draining", server)
	}
	if deadline := e.DrainDeadline(server); deadline > e.clock.Now() {
		return deadline, nil
	}
	return 0, st.RemoveServer(server)
}

// SetAlarm relays a server's alarm/normal signal into the scheduler
// state; alarmed servers are deprioritized by the selectors.
func (e *Engine) SetAlarm(server int, alarmed bool) error {
	return e.policy.State().SetAlarm(server, alarmed)
}

// SetDown marks a server crashed (true) or recovered (false); down
// servers receive no new mappings.
func (e *Engine) SetDown(server int, down bool) error {
	return e.policy.State().SetDown(server, down)
}

// HasEstimator reports whether the hidden-load feedback loop is
// enabled.
func (e *Engine) HasEstimator() bool { return e.est != nil }

// EstimatorKind returns the enabled estimator's kind tag
// (core.EstimatorReactive, core.EstimatorPredictive), or "" when
// feedback is disabled.
func (e *Engine) EstimatorKind() string {
	if e.est == nil {
		return ""
	}
	return e.est.est.Kind()
}

// RecordHits accumulates per-domain hits reported by a server since
// the last RollEstimates. A no-op when feedback is disabled. Rejected
// observations (out-of-range domain, negative hits) are counted and
// readable via EstimatorRejected.
func (e *Engine) RecordHits(domain int, hits float64) {
	if e.est == nil {
		return
	}
	e.est.mu.Lock()
	ok := e.est.est.Record(domain, hits)
	e.est.mu.Unlock()
	if !ok {
		e.estRejected.Add(1)
	}
}

// EstimatorRejected returns how many hit observations the estimator
// refused (out-of-range domains, negative or non-finite counts) —
// malformed or stale reports that would otherwise vanish silently.
func (e *Engine) EstimatorRejected() uint64 { return e.estRejected.Load() }

// RollEstimates closes an estimation interval of the given length in
// seconds and installs the re-estimated hidden-load weights into the
// scheduler state. A no-op when feedback is disabled.
func (e *Engine) RollEstimates(intervalSeconds float64) error {
	if e.est == nil {
		return nil
	}
	e.est.mu.Lock()
	defer e.est.mu.Unlock()
	e.est.est.Roll(intervalSeconds)
	return e.policy.State().SetWeights(e.est.est.Weights())
}

// EstimatorState captures the estimator's serializable soft state for
// a checkpoint; ok is false when feedback is disabled.
func (e *Engine) EstimatorState() (st core.EstimatorState, ok bool) {
	if e.est == nil {
		return core.EstimatorState{}, false
	}
	e.est.mu.Lock()
	defer e.est.mu.Unlock()
	return e.est.est.State(), true
}

// RestoreEstimator replaces the estimator's soft state with a
// checkpointed one; an error (including disabled feedback or a state
// written by a different estimator kind) leaves the estimator
// unchanged.
func (e *Engine) RestoreEstimator(st core.EstimatorState) error {
	if e.est == nil {
		return errors.New("engine: no estimator to restore")
	}
	e.est.mu.Lock()
	defer e.est.mu.Unlock()
	return e.est.est.Restore(st)
}

// EstimatorRates returns the estimator's current absolute per-domain
// demand view in hits/s (the forecast for the predictive kind); ok is
// false when feedback is disabled.
func (e *Engine) EstimatorRates() (rates []float64, ok bool) {
	if e.est == nil {
		return nil, false
	}
	e.est.mu.Lock()
	defer e.est.mu.Unlock()
	return e.est.est.Rates(), true
}

// ForecastRates returns the predicted per-domain demand in hits/s at
// engine time now; ok is false unless the enabled estimator is a
// forecaster (the predictive kind).
func (e *Engine) ForecastRates(now float64) (rates []float64, ok bool) {
	if e.est == nil || e.est.fc == nil {
		return nil, false
	}
	e.est.mu.Lock()
	defer e.est.mu.Unlock()
	return e.est.fc.ForecastRates(now), true
}

// ForecastError returns the estimator's smoothed mean absolute
// forecast error in hits/s; ok is false unless the enabled estimator
// is a forecaster.
func (e *Engine) ForecastError() (abs float64, ok bool) {
	if e.est == nil || e.est.fc == nil {
		return 0, false
	}
	e.est.mu.Lock()
	defer e.est.mu.Unlock()
	return e.est.fc.ForecastError(), true
}
