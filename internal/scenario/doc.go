// Package scenario is the declarative spec layer of the evaluation surface:
// instead of threading string keys ("S1".."S10", method names) through every
// call site, campaigns are described by three composable, JSON-round-
// trippable specs and expanded deterministically into grid cells.
//
// # Spec grammar
//
// A ScenarioSpec declares one evaluation scenario: the Table III workload
// mix (bb_prob, min_tb/max_tb, halve_nodes), the optional §V-E power
// extension (power, min_w/max_w, power_budget_kw), and the theta-variant
// axes that stress the base trace itself (div, interarrival_scale,
// walltime_noise_sigma). Zero-valued variant fields inherit from the
// campaign scale; a spec with no variant overrides evaluates against the
// campaign's shared base materials. Scenarios that share one trained model
// name a common family (a theta variant of S4 has family "S4").
//
// A MethodSpec declares one scheduling method by kind — fcfs, optimization,
// scalar-rl, mrsch — plus, for trained kinds, either a model file reused
// across every cell of a scenario family, or train=true to train one model
// per family in-process before the grid fans out.
//
// A CampaignSpec is scenario axis x method axis x optional seed axis over
// one ScaleSpec (the serializable sizing). ByName resolves builtin
// scenarios and variant syntax ("S4@wtn=0.5", "S4@div=16,ia=0.75");
// BuiltinCampaigns lists the builtin campaigns: the paper grid, the theta
// variants, and the grids behind Figures 3, 5-7 and 10 (fig3, fig567,
// fig10), which mrsch-exp -fig renders.
//
// # Determinism contract
//
//  1. Expand is a pure function of the spec: scenario-major, then method,
//     then seed, with Cell.Index equal to the cell's expansion position.
//     Marshal -> unmarshal -> Expand yields identical cells.
//  2. Cell.Index — not worker identity or completion order — seeds every
//     per-cell policy, so campaign results are identical for every worker
//     count (cells are independent evaluation episodes; see
//     internal/rollout for the training-side contract).
//  3. Load rejects unknown JSON fields, so a typoed axis never silently
//     runs the default campaign; Dump emits stable indented JSON suitable
//     for golden files (specs/paper-campaign.json in CI).
package scenario
