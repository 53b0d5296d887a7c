// The minibatch training engine. One TrainStep samples a minibatch, shards
// it across Config.Workers goroutines, and runs one *batched* forward and
// backward pass per shard through the nn package's matrix-matrix kernels,
// where a per-sample loop (the reference step in engine_test.go) would run
// bsz=1 passes. Three ideas carry the speedup:
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
//  3. Data parallelism: workers 1..N-1 run on nn.SharedClone replicas whose
//     parameters alias the master weight Values but own private gradient
//     buffers; gradients are reduced into the master in fixed worker order
//     before the Adam step, so a given Workers setting is bitwise
//     deterministic run to run.
package dfp

import (
	"runtime"
	"sync"

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

// ensureWorkers builds the worker pool on first use (lazily, so inference-
// only agents at paper scale never pay for replica gradient buffers).
func (a *Agent) ensureWorkers() {
	if a.workers != nil {
		return
	}
	nw := a.cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
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
		tw, ok := a.newReplicaWorker()
		if !ok {
			break // un-cloneable custom state module: single worker
		}
		a.workers = append(a.workers, tw)
	}
}

func (a *Agent) newReplicaWorker() (*trainWorker, bool) {
	nets, ok := a.nets.sharedClone()
	if !ok {
		return nil, false
	}
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
	for _, net := range nets.all() {
		tw.params = append(tw.params, net.Params()...)
	}
	return tw, true
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

// TrainStep samples one minibatch from replay, regresses the taken actions'
// predictions toward the realized future changes (masked MSE), and applies
// one Adam update. The minibatch runs through the batched engine described
// at the top of this file. It returns the mean per-sample loss, or -1 if
// the replay buffer is still empty.
func (a *Agent) TrainStep() float64 {
	if a.replay.len() == 0 {
		return -1
	}
	batch := a.cfg.BatchSize
	if batch > a.replay.len() {
		batch = a.replay.len()
	}
	// The sample sequence consumes the rng identically regardless of worker
	// count, so exploration and sampling are reproducible across Workers
	// settings.
	a.batchBuf = a.batchBuf[:0]
	for b := 0; b < batch; b++ {
		a.batchBuf = append(a.batchBuf, a.replay.sample(a.rng))
	}
	a.ensureWorkers()
	nw := len(a.workers)
	if nw > batch {
		nw = batch
	}
	a.computeHeadWcol()
	shard := (batch + nw - 1) / nw
	if nw == 1 {
		a.workers[0].run(a.batchBuf)
	} else {
		var wg sync.WaitGroup
		for w := 1; w < nw; w++ {
			lo := w * shard
			hi := min(lo+shard, batch)
			if lo >= hi {
				a.workers[w].loss = 0
				continue
			}
			wg.Add(1)
			go func(tw *trainWorker, exps []*Experience) {
				defer wg.Done()
				tw.run(exps)
			}(a.workers[w], a.batchBuf[lo:hi])
		}
		a.workers[0].run(a.batchBuf[:shard])
		wg.Wait()
	}
	total := 0.0
	for w := 0; w < nw; w++ {
		total += a.workers[w].loss
	}
	// Reduce shadow gradients into the master in fixed worker order.
	for w := 1; w < nw; w++ {
		for i, p := range a.workers[w].params {
			nn.AddTo(a.params[i].Grad, p.Grad)
			nn.Fill(p.Grad, 0)
		}
	}
	// Average accumulated gradients over the minibatch, clip, and update —
	// one fused pass per parameter.
	a.opt.StepScaled(a.params, 1/float64(batch), a.cfg.GradClip)
	a.trainSteps++
	return total / float64(batch)
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

	// Gather the shard into row-major input matrices.
	tw.stateB = nn.Ensure(tw.stateB, bs*sd)
	tw.measB = nn.Ensure(tw.measB, bs*m)
	tw.goalB = nn.Ensure(tw.goalB, bs*gd)
	for b, e := range exps {
		copy(tw.stateB[b*sd:(b+1)*sd], e.State)
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
// Sequential; custom modules take the generic path.
func backwardBatchNoInput(l nn.Layer, grad nn.Vec, bsz int) {
	if s, ok := l.(*nn.Sequential); ok {
		s.BackwardBatchNoInput(grad, bsz)
		return
	}
	l.Backward(nil, grad, bsz)
}
