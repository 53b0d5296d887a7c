// The minibatch training engine. One TrainStep samples a minibatch, cuts it
// into stepShards shards, and runs one *batched* forward and backward pass
// per shard through the nn package's matrix-matrix kernels, where a
// per-sample loop (the reference step in engine_test.go) would run bsz=1
// passes. Three ideas carry the speedup:
//
//  1. Batched kernels: each worker gathers its shard into row-major
//     matrices and drives every layer's Forward/Backward at bsz = shard
//     size, so loop overhead amortizes and the Dense kernels run
//     cache-blocked 4-way-unrolled matrix-matrix loops against L1-resident
//     weight tiles.
//
//  2. Sparse dueling backward: the gradient of the masked MSE with respect
//     to the action stream's output is e_a⊗g − (1/n)·1⊗g (only the taken
//     action's PredDim slice is nonzero before mean subtraction). Instead
//     of materializing the dense Actions×PredDim gradient per sample, the
//     engine propagates only the taken slice through the action head and
//     accumulates the rank-deficient −(1/n)·1⊗g correction once per shard
//     (using Σ_b g_b⊗h_b), exactly reproducing the dense arithmetic at a
//     fraction of the FLOPs. The input gradient's mean term reuses a
//     per-step column-collapse of the head weights (headWcol).
//
//  3. Fixed shards, run on the CPUs there are. A step's minibatch is always
//     cut into min(stepShards, batch) shards, and each shard has its worker:
//     worker 0 views the agent's own layers, worker k > 0 an nn.SharedClone
//     replica whose parameters alias the master weight Values but own a
//     private (shadow) gradient buffer. The shards run on
//     G = min(GOMAXPROCS, shards) goroutines, goroutine g running the
//     workers g, g+G, …; a goroutine that runs two still accumulates the
//     second into that worker's shadow. An episode's gradient steps run back to
//     back (TrainSteps), so the helper goroutines are started once per
//     burst, stay for its n steps and exit with it, and all G goroutines
//     share every phase of a step, not only the backward pass:
//
//     batch published → each goroutine runs its shards → each parameter's
//     owner folds that parameter's shadow gradients into the master in
//     worker order, zeroes them and computes its clip factor, one pass
//     per shadow (nn.FoldNorm) → each goroutine applies Adam to its
//     contiguous range of the concatenated parameters → weights complete.
//
//     Owners are whole parameters (largest first onto the least loaded
//     goroutine) because a clip factor is an L2 norm in nn.L2Norm's own
//     lane order; the fold is element-wise in worker order and the Adam
//     kernel is element-wise, so neither which goroutine runs a shard, nor
//     the owner assignment, nor where the ranges are cut changes a bit:
//     shard boundaries, sample order, rng consumption and reduction
//     association are a function of the shard count alone, which is fixed.
//     Trained weights are therefore the same bits at every GOMAXPROCS. The
//     price of fixing it is memory: at GOMAXPROCS=1 a step still keeps the
//     second worker's shadow gradient, one more copy of the weights —
//     0.73 MB at quick scale, 409 MB at §IV-C's width.
//
//     The phases are separated by a generation-counting barrier (gang)
//     whose waiter polls an atomic and never parks: waking a parked
//     goroutine on an idle CPU costs a futex round trip of the same order
//     as a whole shard (≈100 µs on the benchmark host against ≈1 µs for a
//     poll), and every wait inside a burst is bounded by the other side's
//     current phase, because no helper outlives its burst. The waiter
//     calls runtime.Gosched every pollsPerYield polls; that yield is what
//     lets the goroutine it waits for run when another goroutine holds the
//     CPU it needs (pipelined rollouts competing for the same CPUs).
package dfp

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/nn"
)

// trainWorker owns one shard's network view and scratch buffers. Worker 0
// views the agent's own layers (gradients accumulate directly into the
// master); higher workers hold SharedClone replicas with shadow gradients.
type trainWorker struct {
	a *Agent

	stateNet nn.Layer
	measNet  *nn.Sequential
	goalNet  *nn.Sequential
	expNet   *nn.Sequential
	trunk    *nn.Sequential // action stream minus its final Dense
	head     *nn.Dense      // StreamHidden -> Actions*PredDim

	params []*nn.Param // replica params in master order; nil for worker 0

	// Scratch, all Ensure-grown and reused across steps.
	stateB, measB, goalB   nn.Vec
	jsB, jmB, jgB          nn.Vec
	jointB                 nn.Vec
	expOutB, hB, actOutB   nn.Vec
	gB, predRow, meanA     nn.Vec
	dJointExpB, dJointActB nn.Vec
	dHB                    nn.Vec
	stateGB, measGB, goalG nn.Vec
	gsum, bsum             nn.Vec

	loss float64
}

// splitActStream views an action-stream Sequential as trunk + final Dense.
func splitActStream(act *nn.Sequential) (*nn.Sequential, *nn.Dense) {
	last := len(act.Layers) - 1
	return &nn.Sequential{Layers: act.Layers[:last]}, act.Layers[last].(*nn.Dense)
}

// stepShards is the number of shards a gradient step cuts its minibatch
// into (fewer only when the minibatch has fewer samples). It decides the
// summation order of a step's gradient, so it is fixed: two is what every
// golden was written at and the fastest count measured (ROADMAP 6(b)).
const stepShards = 2

// ensureWorkers builds one worker per shard on first use (lazily, so
// inference-only agents at paper scale never pay for replica gradient
// buffers).
func (a *Agent) ensureWorkers() {
	if a.workers != nil {
		return
	}
	nw := a.cfg.shards
	if nw <= 0 {
		nw = stepShards
	}
	trunk, head := splitActStream(a.nets.act)
	a.workers = []*trainWorker{{
		a:        a,
		stateNet: a.nets.state,
		measNet:  a.nets.meas,
		goalNet:  a.nets.goal,
		expNet:   a.nets.exp,
		trunk:    trunk,
		head:     head,
	}}
	for w := 1; w < nw; w++ {
		a.workers = append(a.workers, a.newReplicaWorker())
	}
}

func (a *Agent) newReplicaWorker() *trainWorker {
	nets := a.nets.cloneVia(nn.SharedClone)
	trunk, head := splitActStream(nets.act)
	tw := &trainWorker{
		a:        a,
		stateNet: nets.state,
		measNet:  nets.meas,
		goalNet:  nets.goal,
		expNet:   nets.exp,
		trunk:    trunk,
		head:     head,
	}
	// The replicas are the one place a clone runs Backward, so the one
	// place clone gradient storage is allocated: a shadow per parameter.
	for _, p := range nets.params() {
		p.Grad = make(nn.Vec, len(p.Value))
		tw.params = append(tw.params, p)
	}
	return tw
}

// computeHeadWcol collapses the action head's weight blocks across actions:
// headWcol[k*sh+j] = Σ_a W[(a*pd+k)*sh+j]. The sparse backward's input-
// gradient mean term needs (Σ_a W_a)ᵀ·g, so collapsing once per step turns
// an O(Actions·PredDim·StreamHidden) per-sample cost into a per-step one.
func (a *Agent) computeHeadWcol() {
	pd, n, sh := a.cfg.PredDim(), a.cfg.Actions, a.cfg.StreamHidden
	w := a.workers[0].head.W.Value
	a.headWcol = nn.Ensure(a.headWcol, pd*sh)
	nn.Fill(a.headWcol, 0)
	for ai := 0; ai < n; ai++ {
		for k := 0; k < pd; k++ {
			wc := a.headWcol[k*sh : (k+1)*sh]
			row := w[(ai*pd+k)*sh : (ai*pd+k+1)*sh]
			for j, v := range row {
				wc[j] += v
			}
		}
	}
}

// TrainStep is a burst of one: it samples one minibatch from replay,
// regresses the taken actions' predictions toward the realized future
// changes (masked MSE), and applies one Adam update. It returns the mean
// per-sample loss, or -1 if the replay buffer is still empty.
func (a *Agent) TrainStep() (loss float64) {
	a.TrainSteps(1, func(l float64) { loss = l })
	return loss
}

// TrainSteps runs n gradient steps back to back — what n TrainStep calls
// do, to the bit, on weights, optimizer state, rng and losses — and calls
// after, when it is not nil, with each step's loss once that step's weights
// are complete. The minibatches run through the batched engine described at
// the top of this file; the helper goroutines are started once for the
// burst and have all returned when TrainSteps does, also when after panics.
// after runs on the calling goroutine and must not touch the agent. With an
// empty replay buffer every loss is -1 and nothing else happens; n <= 0 is
// a no-op.
func (a *Agent) TrainSteps(n int, after func(loss float64)) {
	if n <= 0 {
		return
	}
	batch := min(a.cfg.BatchSize, a.replay.len())
	if batch == 0 {
		for s := 0; s < n && after != nil; s++ {
			after(-1)
		}
		return
	}
	a.ensureWorkers()
	shards := min(len(a.workers), batch)
	ng := min(runtime.GOMAXPROCS(0), shards)
	a.planFor(ng)
	g := &a.gang
	g.open(ng)
	for w := 1; w < ng; w++ {
		go func() {
			defer g.left.Add(1)
			for s := 0; s < n && g.wait() && a.share(w, ng, shards, batch); s++ {
			}
		}()
	}
	// Leaving the burst — done or panicking — releases any helper still at
	// a barrier and waits until every helper has returned.
	defer g.close()
	for s := 0; s < n; s++ {
		a.batchBuf = a.batchBuf[:0]
		for b := 0; b < batch; b++ {
			a.batchBuf = append(a.batchBuf, a.replay.sample(a.rng))
		}
		a.computeHeadWcol()
		a.opt.BeginStep(a.params)
		g.wait() // batch published
		if a.observe != nil {
			a.phases, a.phaseAt = StepPhases{}, time.Now()
		}
		a.share(0, ng, shards, batch)
		if a.observe != nil {
			a.observe(a.phases)
		}
		total := 0.0
		for _, tw := range a.workers[:shards] {
			total += tw.loss
		}
		a.trainSteps++
		if after != nil {
			after(total / float64(batch))
		}
	}
}

// share is goroutine w's part of one step on ng goroutines, from the
// published batch to the complete weights: the shards of workers w, w+ng, …,
// the parameters it owns, its range of the Adam update. It reports false
// when the burst was abandoned.
func (a *Agent) share(w, ng, shards, batch int) bool {
	g := &a.gang
	shard := (batch + shards - 1) / shards
	for k := w; k < shards; k += ng {
		lo := min(k*shard, batch)
		a.workers[k].run(a.batchBuf[lo:min(lo+shard, batch)])
	}
	a.lap(w, &a.phases.Shard)
	if !g.wait() {
		return false
	}
	a.lap(w, &a.phases.Wait)
	// Average the accumulated gradients over the minibatch and clip: one
	// factor per parameter, applied inside the Adam kernel. The fold reads
	// each gradient once: the last shadow's pass also takes the norm.
	scale := 1 / float64(batch)
	shadows := a.workers[1:shards]
	for _, i := range a.plan.owned[w] {
		grad := a.params[i].Grad
		norm := 0.0
		if len(shadows) == 0 && a.cfg.GradClip > 0 {
			norm = nn.FoldNorm(grad, nil)
		}
		for _, tw := range shadows {
			norm = nn.FoldNorm(grad, tw.params[i].Grad)
		}
		a.plan.factor[i] = nn.ClipFactorOf(norm, scale, a.cfg.GradClip)
	}
	a.lap(w, &a.phases.Fold)
	if !g.wait() {
		return false
	}
	a.lap(w, &a.phases.Wait)
	for _, r := range a.plan.ranges[w] {
		a.opt.ApplyRange(a.params[r.param], r.lo, r.hi, a.plan.factor[r.param])
	}
	a.lap(w, &a.phases.Adam)
	ok := g.wait() // weights complete
	a.lap(w, &a.phases.Wait)
	return ok
}

// StepPhases is where the calling goroutine spent one gradient step after
// its batch was published: its shards' forward and backward, its share of
// the gradient fold and clip norms, its range of the Adam update, and the
// three barrier waits between and after them.
type StepPhases struct {
	Shard, Fold, Adam, Wait time.Duration
}

// ObserveSteps has f called after every gradient step with that step's
// phases, on the goroutine that called TrainSteps and before its after; nil
// stops it. The clock is read only while an f is set, and nothing else about
// a step changes: trained weights are the same bits observed or not.
func (a *Agent) ObserveSteps(f func(StepPhases)) { a.observe = f }

// lap closes one of goroutine 0's phases when steps are observed: the time
// since the previous lap goes to d.
func (a *Agent) lap(w int, d *time.Duration) {
	if w != 0 || a.observe == nil {
		return
	}
	now := time.Now()
	*d += now.Sub(a.phaseAt)
	a.phaseAt = now
}

// stepPlan is how nw goroutines divide the part of a step that follows the
// backward pass. Any division gives the same bits (see the file header), so
// it is laid out once per goroutine count and only balances the load.
type stepPlan struct {
	nw     int
	owned  [][]int       // owned[w]: the parameters goroutine w folds and norms
	ranges [][]paramSpan // ranges[w]: goroutine w's 1/nw of the concatenated parameters
	factor []float64     // per parameter: this step's gradient multiplier
}

// paramSpan is elements [lo,hi) of parameter number param.
type paramSpan struct{ param, lo, hi int }

// planFor lays the plan out for nw goroutines, unless it already is.
func (a *Agent) planFor(nw int) {
	if a.plan.nw == nw {
		return
	}
	pl := stepPlan{
		nw:     nw,
		owned:  make([][]int, nw),
		ranges: make([][]paramSpan, nw),
		factor: make([]float64, len(a.params)),
	}
	// Owners: largest parameter first, each onto the least loaded goroutine.
	order := make([]int, len(a.params))
	total := 0
	for i, p := range a.params {
		order[i] = i
		total += len(p.Value)
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Compare(len(a.params[y].Value), len(a.params[x].Value))
	})
	load := make([]int, nw)
	for _, i := range order {
		w := 0
		for k := range load {
			if load[k] < load[w] {
				w = k
			}
		}
		pl.owned[w] = append(pl.owned[w], i)
		load[w] += len(a.params[i].Value)
	}
	// Ranges: goroutine w takes [w*total/nw, (w+1)*total/nw) of the
	// parameters laid end to end.
	start := 0
	for i, p := range a.params {
		end := start + len(p.Value)
		for w := 0; w < nw; w++ {
			lo, hi := max(w*total/nw, start), min((w+1)*total/nw, end)
			if lo < hi {
				pl.ranges[w] = append(pl.ranges[w], paramSpan{i, lo - start, hi - start})
			}
		}
		start = end
	}
	a.plan = pl
}

// gang is the barrier the goroutines of one burst meet at. The last of n
// arrivals opens the next generation; the others poll for it.
type gang struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint32
	gone    atomic.Bool  // the caller has left the burst
	left    atomic.Int32 // helpers that have returned
}

// pollsPerYield is how often a waiter hands its CPU to the scheduler: rare
// enough that a wait between two running goroutines (a few polls) never pays
// for it, frequent enough that a goroutine with no CPU of its own gets one
// within a microsecond or two.
const pollsPerYield = 256

func (g *gang) open(n int) {
	g.n = int32(n)
	g.arrived.Store(0)
	g.gone.Store(false)
	g.left.Store(0)
}

// wait returns true once all n goroutines have arrived, and false if the
// caller left the burst instead.
func (g *gang) wait() bool {
	gen := g.gen.Load()
	if g.arrived.Add(1) == g.n {
		g.arrived.Store(0)
		g.gen.Add(1)
		return true
	}
	for i := 1; g.gen.Load() == gen; i++ {
		if g.gone.Load() {
			return false
		}
		if i%pollsPerYield == 0 {
			runtime.Gosched()
		}
	}
	return true
}

// close ends the burst on the caller's side and waits for the helpers.
func (g *gang) close() {
	g.gone.Store(true)
	for i := 1; g.left.Load() != g.n-1; i++ {
		if i%pollsPerYield == 0 {
			runtime.Gosched()
		}
	}
}

// run processes one shard: gather, one batched forward, per-sample dueling
// combine and loss, and one batched backward with the sparse action-head
// path.
func (tw *trainWorker) run(exps []*Experience) {
	tw.loss = 0
	bs := len(exps)
	if bs == 0 {
		return
	}
	cfg := &tw.a.cfg
	sd, m, gd := cfg.StateDim, cfg.Measurements, cfg.GoalDim()
	pd, n := cfg.PredDim(), cfg.Actions
	so, h, sh := cfg.StateOut, cfg.ModuleHidden, cfg.StreamHidden
	jd := so + 2*h

	// Gather the shard into row-major input matrices; each state is expanded
	// from its runs straight into its row.
	tw.stateB = nn.Ensure(tw.stateB, bs*sd)[:0]
	tw.measB = nn.Ensure(tw.measB, bs*m)
	tw.goalB = nn.Ensure(tw.goalB, bs*gd)
	for b, e := range exps {
		tw.stateB = e.State.appendTo(tw.stateB)
		copy(tw.measB[b*m:(b+1)*m], e.Meas)
		copy(tw.goalB[b*gd:(b+1)*gd], e.Goal)
	}

	// Batched forward through the three modules, interleaved into the joint
	// representation.
	tw.jsB = nn.Ensure(tw.jsB, bs*so)
	tw.jmB = nn.Ensure(tw.jmB, bs*h)
	tw.jgB = nn.Ensure(tw.jgB, bs*h)
	js := tw.stateNet.Forward(tw.jsB, tw.stateB, bs)
	jm := tw.measNet.Forward(tw.jmB, tw.measB, bs)
	jg := tw.goalNet.Forward(tw.jgB, tw.goalB, bs)
	tw.jointB = nn.Ensure(tw.jointB, bs*jd)
	for b := 0; b < bs; b++ {
		row := tw.jointB[b*jd : (b+1)*jd]
		copy(row[:so], js[b*so:(b+1)*so])
		copy(row[so:so+h], jm[b*h:(b+1)*h])
		copy(row[so+h:], jg[b*h:(b+1)*h])
	}

	// Batched forward through both streams.
	tw.expOutB = nn.Ensure(tw.expOutB, bs*pd)
	tw.hB = nn.Ensure(tw.hB, bs*sh)
	tw.actOutB = nn.Ensure(tw.actOutB, bs*n*pd)
	expOut := tw.expNet.Forward(tw.expOutB, tw.jointB, bs)
	hB := tw.trunk.Forward(tw.hB, tw.jointB, bs)
	actOut := tw.head.Forward(tw.actOutB, hB, bs)

	// Dueling combine and masked-MSE gradient per sample: only the taken
	// action's prediction enters the loss, so gB carries one PredDim row
	// per sample.
	tw.gB = nn.Ensure(tw.gB, bs*pd)
	tw.predRow = nn.Ensure(tw.predRow, pd)
	tw.meanA = nn.Ensure(tw.meanA, pd)
	invN := 1 / float64(n)
	for b, e := range exps {
		actRow := actOut[b*n*pd : (b+1)*n*pd]
		meanA := tw.meanA
		nn.Fill(meanA, 0)
		for ai := 0; ai < n; ai++ {
			row := actRow[ai*pd : (ai+1)*pd]
			for k, v := range row {
				meanA[k] += v
			}
		}
		taken := actRow[e.Action*pd : (e.Action+1)*pd]
		for k := 0; k < pd; k++ {
			tw.predRow[k] = expOut[b*pd+k] + taken[k] - meanA[k]/float64(n)
		}
		tw.loss += nn.MaskedMSEInto(tw.gB[b*pd:(b+1)*pd], tw.predRow, e.Target, e.Mask)
	}

	// Expectation stream: dL/dE is just g, batched straight through.
	tw.dJointExpB = nn.Ensure(tw.dJointExpB, bs*jd)
	dJoint := tw.expNet.Backward(tw.dJointExpB, tw.gB, bs)

	// Action head, sparse path. Per sample only the taken block receives
	// +g⊗h; the −(1/n)·1⊗g mean term is accumulated in gsum/bsum and
	// applied to every block once per shard.
	headW, headWG, headBG := tw.head.W.Value, tw.head.W.Grad, tw.head.B.Grad
	wcol := tw.a.headWcol
	tw.gsum = nn.Ensure(tw.gsum, pd*sh)
	tw.bsum = nn.Ensure(tw.bsum, pd)
	nn.Fill(tw.gsum, 0)
	nn.Fill(tw.bsum, 0)
	tw.dHB = nn.Ensure(tw.dHB, bs*sh)
	nn.Fill(tw.dHB, 0)
	for b, e := range exps {
		g := tw.gB[b*pd : (b+1)*pd]
		hrow := hB[b*sh : (b+1)*sh]
		dh := tw.dHB[b*sh : (b+1)*sh]
		base := e.Action * pd
		for k, gk := range g {
			if gk == 0 {
				continue
			}
			tw.bsum[k] += gk
			headBG[base+k] += gk
			row := headW[(base+k)*sh : (base+k+1)*sh]
			grow := headWG[(base+k)*sh : (base+k+1)*sh]
			gs := tw.gsum[k*sh : (k+1)*sh]
			wc := wcol[k*sh : (k+1)*sh]
			gkn := gk * invN
			for j := 0; j < sh; j++ {
				t := gk * hrow[j]
				grow[j] += t
				gs[j] += t
				dh[j] += gk*row[j] - gkn*wc[j]
			}
		}
	}
	for ai := 0; ai < n; ai++ {
		for k := 0; k < pd; k++ {
			headBG[ai*pd+k] -= tw.bsum[k] * invN
			grow := headWG[(ai*pd+k)*sh : (ai*pd+k+1)*sh]
			gs := tw.gsum[k*sh : (k+1)*sh]
			for j, v := range gs {
				grow[j] -= v * invN
			}
		}
	}

	// Trunk backward, then sum both streams' joint gradients and split them
	// across the three input modules.
	tw.dJointActB = nn.Ensure(tw.dJointActB, bs*jd)
	dJointAct := tw.trunk.Backward(tw.dJointActB, tw.dHB, bs)
	nn.AddTo(dJoint, dJointAct)

	tw.stateGB = nn.Ensure(tw.stateGB, bs*so)
	tw.measGB = nn.Ensure(tw.measGB, bs*h)
	tw.goalG = nn.Ensure(tw.goalG, bs*h)
	for b := 0; b < bs; b++ {
		row := dJoint[b*jd : (b+1)*jd]
		copy(tw.stateGB[b*so:(b+1)*so], row[:so])
		copy(tw.measGB[b*h:(b+1)*h], row[so:so+h])
		copy(tw.goalG[b*h:(b+1)*h], row[so+h:])
	}
	backwardBatchNoInput(tw.stateNet, tw.stateGB, bs)
	backwardBatchNoInput(tw.measNet, tw.measGB, bs)
	backwardBatchNoInput(tw.goalNet, tw.goalG, bs)
}

// backwardBatchNoInput elides the module's first-layer input gradient (the
// module input is data, so nobody consumes it) when the module is a plain
// Sequential; the per-resource MultiBranch takes the generic path.
func backwardBatchNoInput(l nn.Layer, grad nn.Vec, bsz int) {
	if s, ok := l.(*nn.Sequential); ok {
		s.BackwardBatchNoInput(grad, bsz)
		return
	}
	l.Backward(nil, grad, bsz)
}
