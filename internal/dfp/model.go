package dfp

import (
	"io"
	"math/rand"

	"repro/internal/nn"
)

// Model is a trained DFP network, read-only for its whole life: the
// configuration, the five networks' weights and the state module's first
// Dense packed once (nn.Dense.Pack) when the model is built. It has no
// gradient, optimizer, replay ring or exploration schedule, and nothing
// changes its weights. Every reader it hands out, Evaluator's actors and
// Decider's batched deciders, is an nn.SharedClone of its networks with
// private scratch that reads the one packed copy (nn.Dense.SharePack), so any
// number of them may run at once and none packs or copies a layer.
type Model struct {
	cfg  Config
	nets modules
}

// LoadModel builds a model from a model file (Save's output) for an agent
// built with cfg. The whole file is checked before the model exists: on a
// file of another architecture, or a damaged or truncated one, it returns an
// error and no model. The networks it reads into are gradient-free views of
// cfg's architecture, built without drawing initial weights, that take the
// file's values as their own, so a custom state module is left as it was;
// it builds no optimizer and no replay ring.
func LoadModel(cfg Config, r io.Reader) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	built := buildModules(&cfg, nil)
	nets := built.cloneVia(nn.SharedClone)
	if err := nn.AdoptWeights(r, nets.params()); err != nil {
		return nil, err
	}
	return newModel(cfg, nets), nil
}

// Model returns a model over the agent's current weights. It copies none of
// them: the model is valid until the agent's weights next change (a training
// step, Load or ReadState), and a reader of it must not outlive that. Build
// another one after they change.
func (a *Agent) Model() *Model { return newModel(a.cfg, a.nets.cloneVia(nn.SharedClone)) }

// newModel packs the first layer of nets, the model's own clones.
func newModel(cfg Config, nets modules) *Model {
	if d := firstDense(nets.state); d != nil {
		d.Pack()
	}
	return &Model{cfg: cfg, nets: nets}
}

// Config returns the configuration the model was built for.
func (m *Model) Config() Config { return m.cfg }

// Save writes the model's weights to w as a model file.
func (m *Model) Save(w io.Writer) error { return nn.SaveWeights(w, m.nets.params()) }

// share returns SharedClone replicas of the model's networks whose first
// Dense reads the model's packed copy.
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
