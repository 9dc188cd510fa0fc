package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dnslb/internal/nameserver"
	"dnslb/internal/simcore"
	"dnslb/internal/trace"
	"dnslb/internal/workload"
)

// pageStep hands one page of hits over from a client: the first page of
// a session resolves the site name before it is sent.
type pageStep func(cl *client, newSession bool, hits int)

// population is a group of client processes sharing three random
// streams, an end time and one page step: the workload's own clients
// (streams "think", "hits", "pages"; they never leave) or one flash
// crowd ("flash-think", "flash-hits", "flash-pages"; it dissolves at
// its end). Every flash crowd draws from the same three streams.
type population struct {
	sim         *simcore.Simulator
	wl          workload.Config
	think       *simcore.ExpStream
	hits, pages *simcore.Stream
	end         float64
	page        pageStep
}

func newPopulation(sim *simcore.Simulator, wl workload.Config, prefix string, page pageStep) *population {
	return &population{
		sim:   sim,
		wl:    wl,
		think: sim.ExpStream(prefix + "think"),
		hits:  sim.Stream(prefix + "hits"),
		pages: sim.Stream(prefix + "pages"),
		end:   math.Inf(1),
		page:  page,
	}
}

// client is one Web client: it belongs to a domain, resolves through
// its name server's cache, holds the session's server mapping, and
// cycles think → page burst.
type client struct {
	pop       *population
	id        int
	domain    int
	meanThink float64
	cache     *nameserver.Cache
	server    int
	pagesLeft int
	wake      func() // step as a method value, bound once per client
}

func (p *population) newClient(id, domain int, meanThink float64, cache *nameserver.Cache) *client {
	cl := &client{pop: p, id: id, domain: domain, meanThink: meanThink, cache: cache}
	cl.wake = cl.step
	return cl
}

// step sends one page: a new session first draws its length, then the
// page draws its hits, is handed to the page step, and the next think
// time is scheduled — in that order, which the seeded output depends on.
func (cl *client) step() {
	p := cl.pop
	if p.sim.Now() >= p.end {
		return // the crowd dissolved
	}
	newSession := cl.pagesLeft == 0
	if newSession {
		cl.pagesLeft = p.pages.Geometric(p.wl.PagesPerSession)
	}
	hits := p.hits.UniformInt(p.wl.HitsMin, p.wl.HitsMax)
	p.page(cl, newSession, hits)
	cl.pagesLeft--
	p.sim.Schedule(p.think.Exp(cl.meanThink), cl.wake)
}

// spawn starts the workload's clients, each waking after one think
// time and resolving through its domain's cache. Client IDs run over
// the whole population in domain order; a domain the perturbation
// starved keeps its IDs but runs no client.
func (p *population) spawn(caches []*nameserver.Cache) {
	thinks := p.wl.ThinkTimes()
	counts := p.wl.Partition()
	id := 0
	for domain := range p.wl.Domains {
		if math.IsInf(thinks[domain], 1) {
			id += counts[domain]
			continue
		}
		for range counts[domain] {
			cl := p.newClient(id, domain, thinks[domain], caches[domain])
			p.sim.Schedule(p.think.Exp(cl.meanThink), cl.wake)
			id++
		}
	}
}

// GenerateTrace records the workload's clients over the given horizon
// in virtual seconds as a trace. It runs the simulator's own client
// population with a page step that records each page, so a replay with
// the same seed reproduces a live simulation bit for bit.
func GenerateTrace(wl workload.Config, horizon float64, seed uint64) ([]trace.Record, error) {
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, errors.New("sim: trace horizon must be positive")
	}
	sc := simcore.New(seed)
	var records []trace.Record
	pop := newPopulation(sc, wl, "", func(cl *client, newSession bool, hits int) {
		records = append(records, trace.Record{
			Time:       sc.Now(),
			Domain:     cl.domain,
			Client:     cl.id,
			Hits:       hits,
			NewSession: newSession,
		})
	})
	// Recording resolves nothing, so the clients need no caches.
	pop.spawn(make([]*nameserver.Cache, wl.Domains))
	sc.Run(horizon)
	// Events fire in time order, so records are already sorted; assert
	// rather than trust.
	if !sort.SliceIsSorted(records, func(a, b int) bool { return records[a].Time < records[b].Time }) {
		return nil, errors.New("sim: trace generator produced unsorted records")
	}
	return records, nil
}

// scheduleTrace installs trace playback: every record becomes one page
// of the client its ID names, from the record's domain, handed to the
// same page step the live clients use. A client's first record
// resolves even without the new-session flag, so a trace may start
// mid-session.
//
// Records are armed one at a time, each from its predecessor's handler,
// on sequence numbers reserved here: they fire in the (time, sequence)
// order scheduling every record now would give, ties with other events
// included, while the event list holds one playback event, not one per
// record. That needs the records in time order, as trace.Read keeps
// them.
func scheduleTrace(cfg Config, sim *simcore.Simulator, caches []*nameserver.Cache, page pageStep) error {
	recs := cfg.Trace
	for i, rec := range recs {
		if rec.Domain < 0 || rec.Domain >= cfg.Workload.Domains {
			return fmt.Errorf("sim: trace record %d references domain %d, workload has %d",
				i, rec.Domain, cfg.Workload.Domains)
		}
		if !(rec.Time >= 0) || i > 0 && rec.Time < recs[i-1].Time {
			return fmt.Errorf("sim: trace record %d at time %v, want non-negative and in time order", i, rec.Time)
		}
	}
	clients := make(map[int]*client)
	base := sim.Reserve(len(recs))
	k := 0
	var play func()
	play = func() {
		rec := recs[k]
		if k++; k < len(recs) {
			sim.ScheduleAtSeq(recs[k].Time, base+uint64(k), play)
		}
		cl, seen := clients[rec.Client]
		if !seen {
			cl = &client{id: rec.Client}
			clients[rec.Client] = cl
		}
		cl.domain, cl.cache = rec.Domain, caches[rec.Domain]
		page(cl, rec.NewSession || !seen, rec.Hits)
	}
	sim.ScheduleAtSeq(recs[0].Time, base, play)
	return nil
}
