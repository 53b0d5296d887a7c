package dfp

import (
	"io"
	"math/rand"

	"repro/internal/nn"
)

// Model is a trained DFP network, read-only for its whole life: the
// configuration, the five networks' weights and the state module's first
// Dense packed (nn.Dense.Pack) when the model is built. It has no gradient,
// optimizer, replay ring or exploration schedule, and nothing changes its
// weights. Every reader it hands out, Evaluator's actors and Decider's
// batched deciders, is an nn.SharedClone of its networks with private
// scratch that reads the one packed copy (nn.Dense.SharePack) at every batch
// size, so any number of them may run at once and none packs or copies a
// layer.
//
// Each model keeps its first layer in one layout. One that LoadModel built
// keeps it only packed, where the kernel set packs it: the packed copy is
// where its weights live, and Save reads them back from it. One that
// Agent.Model built reads the agent's dense weights, which the agent keeps,
// and packs a copy of them for its readers. Where the set has no packed path
// (the go set, a purego build) or declines the layer, either kind stays
// dense and every reader forwards through it.
type Model struct {
	cfg  Config
	nets modules
}

// LoadModel builds a model from a model file (Save's output) for an agent
// built with cfg. The whole file is checked before the model exists: on a
// file of another architecture, or a damaged or truncated one, it returns an
// error and no model. It builds cfg's architecture without drawing initial
// weights, decodes the file straight into its values (nn.LoadFresh), then
// keeps the state module's first Dense only in its packed layout where the
// kernel set packs it (nn.Dense.PackOnly). A custom state module is read into
// a copy of its own, so the caller's is left as it was. It builds no
// gradient, optimizer or replay ring.
func LoadModel(cfg Config, r io.Reader) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nets := buildModules(&cfg, nil)
	if cfg.StateModule != nil {
		nets.state = nn.ZeroClone(nets.state)
	}
	if err := nn.LoadFresh(r, nets.params()); err != nil {
		return nil, err
	}
	if d := firstDense(nets.state); d != nil {
		d.PackOnly()
	}
	return newModel(cfg, nets), nil
}

// Model returns a model over the agent's current weights. It copies none of
// them: the model is valid until the agent's weights next change (a training
// step, Load or ReadState), and a reader of it must not outlive that. Build
// another one after they change.
func (a *Agent) Model() *Model { return newModel(a.cfg, a.nets.cloneVia(nn.SharedClone)) }

// newModel packs the first layer of nets, the model's own networks: a
// packed-only layer is packed already.
func newModel(cfg Config, nets modules) *Model {
	if d := firstDense(nets.state); d != nil {
		d.Pack()
	}
	return &Model{cfg: cfg, nets: nets}
}

// Config returns the configuration the model was built for.
func (m *Model) Config() Config { return m.cfg }

// Save writes the model's weights to w as a model file: the bytes LoadModel
// read it from, a packed-only first layer read back out of its packed copy.
func (m *Model) Save(w io.Writer) error { return nn.SaveWeights(w, m.nets.params()) }

// share returns SharedClone replicas of the model's networks whose first
// Dense reads the model's packed copy, at every batch size.
func (m *Model) share() modules {
	nets := m.nets.cloneVia(nn.SharedClone)
	if d := firstDense(nets.state); d != nil {
		d.SharePack(firstDense(m.nets.state))
	}
	return nets
}

// Evaluator returns a greedy actor of the model that records nothing:
// epsilon 0 and no transcript. Its picks are Agent.Act's on the same weights,
// and only an evaluator may answer a decision with Moot.
func (m *Model) Evaluator() *Actor {
	return &Actor{cfg: &m.cfg, nets: m.share(), rng: rand.New(rand.NewSource(m.cfg.Seed)), unrecorded: true}
}

// Decider returns a batched greedy decider of the model.
func (m *Model) Decider() *BatchDecider { return &BatchDecider{cfg: &m.cfg, nets: m.share()} }
