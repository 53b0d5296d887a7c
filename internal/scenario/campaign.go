package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
)

// CampaignSpec declares a full evaluation campaign: a sizing, the scenario
// axis, the method axis, and an optional seed axis. Expand turns the axes
// into a flat, deterministically ordered list of cells.
type CampaignSpec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Scale sizes the shared base materials every non-variant scenario
	// evaluates against.
	Scale ScaleSpec `json:"scale"`
	// Scenarios and Methods are the grid axes, in evaluation order.
	Scenarios []ScenarioSpec `json:"scenarios"`
	Methods   []MethodSpec   `json:"methods"`
	// Seeds replicates every (scenario, method) pair once per entry,
	// replacing the scale seed for that cell's materials and policies. An
	// empty list runs one replicate at the scale seed (recorded as seed 0,
	// meaning "inherit").
	Seeds []int64 `json:"seeds,omitempty"`
}

// Cell is one expanded grid point. Index is the cell's position in the
// expansion; per-cell policy seeding derives from it, so an identical spec
// always reproduces identical cells.
type Cell struct {
	Index    int
	Scenario ScenarioSpec
	Method   MethodSpec
	// Seed is the replicate seed (0 = inherit the campaign scale's seed).
	Seed int64
}

// Label renders the cell for logs and error messages.
func (c Cell) Label() string {
	l := fmt.Sprintf("%s/%s", c.Scenario.Name, c.Method.DisplayName())
	if c.Seed != 0 {
		l += fmt.Sprintf("/seed=%d", c.Seed)
	}
	return l
}

// Validate rejects malformed campaigns with the first offending axis named.
func (c CampaignSpec) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("scenario: campaign has no name")
	}
	if err := c.Scale.Validate(); err != nil {
		return fmt.Errorf("campaign %s: %w", c.Name, err)
	}
	if len(c.Scenarios) == 0 {
		return fmt.Errorf("campaign %s: no scenarios", c.Name)
	}
	if len(c.Methods) == 0 {
		return fmt.Errorf("campaign %s: no methods", c.Name)
	}
	seen := make(map[string]bool, len(c.Scenarios))
	for _, s := range c.Scenarios {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("campaign %s: %w", c.Name, err)
		}
		if seen[s.Name] {
			return fmt.Errorf("campaign %s: duplicate scenario %s", c.Name, s.Name)
		}
		seen[s.Name] = true
	}
	for _, m := range c.Methods {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("campaign %s: %w", c.Name, err)
		}
	}
	for _, seed := range c.Seeds {
		if seed < 0 {
			return fmt.Errorf("campaign %s: negative seed %d", c.Name, seed)
		}
	}
	return nil
}

// Expand flattens the axes into cells: scenario-major, then method, then
// seed (the figure renderers rely on a scenario's cells being consecutive).
// Expansion is a pure function of the spec; expanding an unmarshalled copy
// yields identical cells.
func (c CampaignSpec) Expand() []Cell {
	seeds := c.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	cells := make([]Cell, 0, len(c.Scenarios)*len(c.Methods)*len(seeds))
	for _, sc := range c.Scenarios {
		for _, m := range c.Methods {
			for _, seed := range seeds {
				cells = append(cells, Cell{Index: len(cells), Scenario: sc, Method: m, Seed: seed})
			}
		}
	}
	return cells
}

// Load reads a campaign spec from JSON, rejecting unknown fields (a typoed
// axis name must not silently run the default campaign) and validating it.
func Load(r io.Reader) (CampaignSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec CampaignSpec
	if err := dec.Decode(&spec); err != nil {
		return CampaignSpec{}, fmt.Errorf("scenario: decoding campaign spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return CampaignSpec{}, err
	}
	return spec, nil
}

// Fingerprint digests the spec's canonical Dump form. Two specs share a
// fingerprint exactly when they expand to identical grids over identical
// sizing — the property the distributed runner's handshake relies on to
// refuse mixing workers configured from a different campaign.
func (c CampaignSpec) Fingerprint() (string, error) {
	var buf bytes.Buffer
	if err := c.Dump(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("%x", sum[:16]), nil
}

// Dump writes the spec as stable, indented JSON (the golden-file format:
// field order is fixed by the struct, floats render minimally, and a
// trailing newline terminates the document).
func (c CampaignSpec) Dump(w io.Writer) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("scenario: encoding campaign spec: %w", err)
	}
	_, err := w.Write(buf.Bytes())
	return err
}
