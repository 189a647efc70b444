// Package des is a small discrete-event simulation kernel: a time-ordered
// event queue with deterministic FIFO tie-breaking, used by the workflow
// engine to simulate multi-facility campaigns, by the serving router, and
// by ablation experiments that need explicit timelines.
package des

// Event is a scheduled callback.
type Event struct {
	Time   float64
	Action func(sim *Sim)

	seq int // insertion order for deterministic ties
}

// before is the queue order: earlier time first, ties by insertion.
func (e *Event) before(o *Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	return e.seq < o.seq
}

// Sim is a discrete-event simulation. Its queue is a binary min-heap of
// Event values ordered by (Time, seq): scheduling appends in place, so an
// event costs no allocation beyond the slice's amortized growth.
type Sim struct {
	now     float64
	queue   []Event
	nextSeq int
	// Processed counts executed events.
	Processed int
}

// New creates an empty simulation at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// At schedules action at absolute time t (>= Now).
func (s *Sim) At(t float64, action func(*Sim)) {
	if t < s.now {
		panic("des: scheduling in the past")
	}
	s.queue = append(s.queue, Event{Time: t, Action: action, seq: s.nextSeq})
	s.nextSeq++
	s.up(len(s.queue) - 1)
}

// After schedules action delay seconds from now.
func (s *Sim) After(delay float64, action func(*Sim)) {
	s.At(s.now+delay, action)
}

// Run executes events until the queue is empty or the event count limit is
// reached, and returns the final time.
func (s *Sim) Run(maxEvents int) float64 {
	for len(s.queue) > 0 {
		if maxEvents >= 0 && s.Processed >= maxEvents {
			break
		}
		s.step()
	}
	return s.now
}

// RunBefore executes the events scheduled strictly before t, under the
// same event limit as Run, and then advances the clock to t. It reports
// whether the clock reached t; false means the limit stopped it with
// events before t still queued. A caller streaming inputs from outside the
// queue calls RunBefore(t) and then handles the input at t: the input runs
// after every event before t and before every event at t, exactly as if it
// had been scheduled ahead of all of them.
func (s *Sim) RunBefore(t float64, maxEvents int) bool {
	if t < s.now {
		panic("des: running to the past")
	}
	for len(s.queue) > 0 && s.queue[0].Time < t {
		if maxEvents >= 0 && s.Processed >= maxEvents {
			return false
		}
		s.step()
	}
	s.now = t
	return true
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }

// step pops the earliest event, advances the clock to it, and runs it.
func (s *Sim) step() {
	q := s.queue
	n := len(q) - 1
	e := q[0]
	q[0] = q[n]
	q[n] = Event{} // drop the action so the closure can be collected
	s.queue = q[:n]
	s.down(0)
	s.now = e.Time
	s.Processed++
	e.Action(s)
}

// up and down are container/heap's sift operations on the value heap.
func (s *Sim) up(j int) {
	q := s.queue
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q[j].before(&q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (s *Sim) down(i int) {
	q := s.queue
	n := len(q)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].before(&q[j1]) {
			j = j2 // right child
		}
		if !q[j].before(&q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// Resource is a capacity-limited resource with FIFO queuing: Acquire
// schedules work when a slot frees. It models constrained facilities
// (e.g., a shared GPU partition) inside a Sim.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	waiters  []func(*Sim)
	// Busy integrates slot-seconds for utilization accounting.
	Busy      float64
	lastCheck float64
}

// NewResource creates a resource with the given slot count.
func NewResource(s *Sim, capacity int) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

func (r *Resource) account() {
	r.Busy += float64(r.inUse) * (r.sim.now - r.lastCheck)
	r.lastCheck = r.sim.now
}

// Acquire runs work for duration seconds as soon as a slot is free, then
// calls done (which may be nil).
func (r *Resource) Acquire(duration float64, done func(*Sim)) {
	start := func(sim *Sim) {
		r.account()
		r.inUse++
		sim.After(duration, func(sim *Sim) {
			r.account()
			r.inUse--
			if done != nil {
				done(sim)
			}
			if len(r.waiters) > 0 && r.inUse < r.capacity {
				next := r.waiters[0]
				r.waiters = r.waiters[1:]
				next(sim)
			}
		})
	}
	if r.inUse < r.capacity {
		start(r.sim)
	} else {
		r.waiters = append(r.waiters, start)
	}
}

// InUse returns the currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// Utilization returns mean busy slots divided by capacity over [0, Now].
func (r *Resource) Utilization() float64 {
	r.account()
	if r.sim.now == 0 {
		return 0
	}
	return r.Busy / (float64(r.capacity) * r.sim.now)
}
