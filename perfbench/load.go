package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"starmesh/client"
	"starmesh/internal/workload"
)

// op is one operation: its mix line, spec variant and read target,
// and in an open loop its slot in the schedule.
type op struct {
	at      time.Duration // intended send time, from window start
	rep     int           // timed rep the op belongs to
	step    int           // rate step index within the rep
	entry   int           // mix line
	variant int           // spec variant of a job entry
	pick    uint32        // which finished job a read targets
}

// deck deals mix lines in shuffled rounds: each round holds every
// line exactly weight times, so a run's mix proportions are exact
// after every whole round and only their order depends on the seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(mix []entry, rng *rand.Rand) *deck {
	d := &deck{rng: rng}
	for i, e := range mix {
		for range e.weight {
			d.cards = append(d.cards, i)
		}
	}
	d.next = len(d.cards)
	return d
}

// draw deals the next op's mix line, variant and read target.
func (d *deck) draw(variants [][]workload.Spec) op {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	o := op{entry: d.cards[d.next], pick: d.rng.Uint32()}
	d.next++
	if n := len(variants[o.entry]); n > 0 {
		o.variant = d.rng.IntN(n)
	}
	return o
}

// schedule is the seeded open-loop arrival schedule: the window is
// split into reps equal reps, each stepping through the rates for an
// equal share of the rep with Poisson arrivals, mix lines and spec
// variants drawn per op. The same seed always gives the same ops.
func schedule(rates []float64, reps int, window time.Duration, mix []entry, variants [][]workload.Spec, seed uint64) []op {
	rng := rand.New(rand.NewPCG(seed, 0x5ced))
	dk := newDeck(mix, rng)
	stepLen := window / time.Duration(reps*len(rates))
	var ops []op
	for rep := range reps {
		for i, rate := range rates {
			from := time.Duration(rep*len(rates)+i) * stepLen
			t := from
			for {
				t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
				if t >= from+stepLen {
					break
				}
				o := dk.draw(variants)
				o.at, o.rep, o.step = t, rep, i
				ops = append(ops, o)
			}
		}
	}
	return ops
}

// record is the outcome of one operation.
type record struct {
	rep   int
	step  int
	read  readKind
	label string // spec template label for jobs
	// latency is what the caller waited: from the intended send time
	// (or, when an idle sender's timer woke late, from the wake-up) to
	// the result. call is the same span from the actual call start.
	latency, call time.Duration
	// Open-loop lateness against the schedule: overshoot when an idle
	// sender woke late, busy when every sender was still occupied.
	overshoot, busy time.Duration
	end             time.Time
	failed          bool
	// Detail of jobs: client call split and server trace.
	submit, await                time.Duration
	queue, checkout, run, server time.Duration
}

// recent is a ring of recently finished job ids for reads to target.
type recent struct {
	mu  sync.Mutex
	ids []string
	n   int
}

func newRecent(size int) *recent { return &recent{ids: make([]string, size)} }

func (r *recent) add(id string) {
	r.mu.Lock()
	r.ids[r.n%len(r.ids)] = id
	r.n++
	r.mu.Unlock()
}

func (r *recent) pick(u uint32) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return "", false
	}
	return r.ids[int(u)%min(r.n, len(r.ids))], true
}

// errDiverged marks a result that differs from its standalone
// reference: it fails the whole run, never becomes a number.
var errDiverged = errors.New("result diverged from its standalone reference")

// generator executes operations against the service and checks them.
type generator struct {
	c        *client.Client
	mix      []entry
	variants [][]workload.Spec
	refs     map[string]workload.ScenarioResult
	done     *recent
	rejected atomic.Int64 // 429s seen by the client's retry loop

	mu       sync.Mutex
	diverged []string // divergences: the run is incorrect
	errs     []string // other failed operations, for the error report
}

// opTimeout is each operation's deadline; an op that misses it fails.
const opTimeout = 10 * time.Second

// note keeps the first few failures of each class for the report.
func (d *generator) note(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := &d.errs
	if errors.Is(err, errDiverged) {
		list = &d.diverged
	}
	if len(*list) < 5 {
		*list = append(*list, err.Error())
	}
}

// checkJob compares a job snapshot's result with its reference.
func (d *generator) checkJob(j client.Job) error {
	ref, ok := d.refs[j.Spec.Name()]
	if !ok {
		return fmt.Errorf("job %s: no reference for spec %s", j.ID, j.Spec.Name())
	}
	if j.Status != client.StatusDone || j.Result == nil {
		return fmt.Errorf("job %s (%s): status %s, error %q: %w", j.ID, j.Spec.Name(), j.Status, j.Error, errDiverged)
	}
	r := j.Result
	if r.UnitRoutes != ref.UnitRoutes || r.Conflicts != ref.Conflicts || r.OK != ref.OK {
		return fmt.Errorf("job %s (%s): unit_routes/conflicts/ok = %d/%d/%v, reference %d/%d/%v: %w",
			j.ID, j.Spec.Name(), r.UnitRoutes, r.Conflicts, r.OK, ref.UnitRoutes, ref.Conflicts, ref.OK, errDiverged)
	}
	return nil
}

// do runs one operation and returns its record; latency and call are
// filled by the caller, which owns the clock origin.
func (d *generator) do(o op) record {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	e := d.mix[o.entry]
	rec := record{read: e.read}
	var err error
	if e.read == readNone {
		err = d.job(ctx, d.variants[o.entry][o.variant], &rec)
	} else {
		err = d.readOp(ctx, e.read, o.pick)
	}
	if err != nil {
		rec.failed = true
		d.note(err)
	}
	return rec
}

// job submits one spec, awaits its terminal status and checks it.
func (d *generator) job(ctx context.Context, spec workload.Spec, rec *record) error {
	rec.label = label(spec)
	t0 := time.Now()
	j, err := d.c.Submit(ctx, spec)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("submit %s: %w", spec.Name(), err)
	}
	final, err := d.c.Await(ctx, j.ID)
	if err != nil {
		return fmt.Errorf("await %s: %w", j.ID, err)
	}
	if err := d.checkJob(final); err != nil {
		return err
	}
	d.done.add(final.ID)
	rec.submit, rec.await = t1.Sub(t0), time.Since(t1)
	rec.server = final.Finished.Sub(final.Created)
	for _, ev := range final.Trace {
		dur := time.Duration(ev.DurNs)
		switch ev.Event {
		case client.TraceClaimed:
			rec.queue += dur
		case client.TraceMachineReady:
			rec.checkout += dur
		case string(client.StatusDone):
			rec.run += dur
		}
	}
	return nil
}

// readOp performs one read and checks what it returns.
func (d *generator) readOp(ctx context.Context, kind readKind, pick uint32) error {
	switch kind {
	case readGet:
		id, ok := d.done.pick(pick)
		if !ok {
			return errors.New("get: no finished job to read yet")
		}
		j, err := d.c.Get(ctx, id)
		if err != nil {
			return fmt.Errorf("get %s: %w", id, err)
		}
		return d.checkJob(j)
	case readList:
		page, err := d.c.List(ctx, client.ListOptions{Status: client.StatusDone, Limit: 20})
		if err != nil {
			return fmt.Errorf("list: %w", err)
		}
		if len(page.Jobs) == 0 || len(page.Jobs) > 20 {
			return fmt.Errorf("list: %d jobs on a page of 20 over a non-empty store: %w", len(page.Jobs), errDiverged)
		}
		for _, j := range page.Jobs {
			if err := d.checkJob(j); err != nil {
				return err
			}
		}
		return nil
	case readStats:
		st, err := d.c.Stats(ctx)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		if st.Done == 0 || st.UnitRoutes <= 0 || st.Failed != 0 {
			return fmt.Errorf("stats: done=%d failed=%d unit_routes=%d after finished jobs: %w",
				st.Done, st.Failed, st.UnitRoutes, errDiverged)
		}
		return nil
	}
	panic("unknown read kind")
}

// runResult is everything one timed window produced.
type runResult struct {
	recs    []record
	missed  int           // scheduled ops never started before the grace ran out
	elapsed time.Duration // window start → last result (≥ the window)
}

// graceAfterWindow bounds how long a backlogged open loop may keep
// starting overdue ops once the window has ended.
const graceAfterWindow = 3 * time.Second

// runOpen plays the schedule with `senders` goroutines. Each sender
// takes the next op; if it is early it sleeps until the op is due,
// and any overshoot of that sleep is generator error, so the op is
// timed from the wake-up. If it is late because every sender was
// busy, that wait is a real client-side queue and the op is timed
// from its due time.
func (d *generator) runOpen(ops []op, start time.Time, window time.Duration, senders int) runResult {
	stopAt := start.Add(window + graceAfterWindow)
	var next atomic.Int64
	recs := make([]record, len(ops))
	started := make([]bool, len(ops))
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := start.Add(o.at)
				now := time.Now()
				if now.After(stopAt) {
					return
				}
				var overshoot, busy time.Duration
				origin := due
				if now.Before(due) {
					time.Sleep(due.Sub(now))
					origin = time.Now()
					overshoot = origin.Sub(due)
				} else {
					busy = now.Sub(due)
				}
				callStart := time.Now()
				rec := d.do(o)
				rec.end = time.Now()
				rec.rep, rec.step, rec.overshoot, rec.busy = o.rep, o.step, overshoot, busy
				rec.latency, rec.call = rec.end.Sub(origin), rec.end.Sub(callStart)
				recs[i], started[i] = rec, true
			}
		}()
	}
	wg.Wait()
	var res runResult
	last := start.Add(window)
	for i, ok := range started {
		if !ok {
			res.missed++
			continue
		}
		res.recs = append(res.recs, recs[i])
		if recs[i].end.After(last) {
			last = recs[i].end
		}
	}
	res.elapsed = last.Sub(start)
	return res
}

// runClosed runs `clients` closed-loop clients for the window: each
// draws an op from its own seeded stream, runs it, and only then
// draws the next.
func (d *generator) runClosed(start time.Time, window time.Duration, reps, clients int, seed uint64) runResult {
	time.Sleep(time.Until(start))
	end := start.Add(window)
	repLen := window / time.Duration(reps)
	out := make([][]record, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dk := newDeck(d.mix, rand.New(rand.NewPCG(seed, uint64(c)+1)))
			for time.Now().Before(end) {
				o := dk.draw(d.variants)
				t0 := time.Now()
				rec := d.do(o)
				rec.end = time.Now()
				rec.rep = min(int(t0.Sub(start)/repLen), reps-1)
				rec.latency = rec.end.Sub(t0)
				rec.call = rec.latency
				out[c] = append(out[c], rec)
			}
		}()
	}
	wg.Wait()
	var res runResult
	last := end
	for _, rs := range out {
		res.recs = append(res.recs, rs...)
		for _, r := range rs {
			if r.end.After(last) {
				last = r.end
			}
		}
	}
	res.elapsed = last.Sub(start)
	return res
}
