package exp

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/llm"
)

// ClientFactory mints an llm.Client bound to (model, seed) over a task set.
// It is an alias of the plain function signature so any compatible factory —
// llm.NewSimClient via a thin wrapper, httpclient.Factory's product, or a
// test double — assigns without conversion. Experiment drivers call it once
// per (task, run) pair, mirroring the historical NewSimClient call sites, so
// a resilient HTTP factory that shares one transport across bindings keeps
// its cache, limiter and breaker state common to the whole experiment.
type ClientFactory = func(model string, seed int64, tasks []eval.Task) (llm.Client, error)

// mintClient applies a config's optional factory, defaulting to the
// deterministic simulated client that reproduces the published numbers.
func mintClient(f ClientFactory, profile llm.Profile, seed int64, tasks []eval.Task) (llm.Client, error) {
	if f == nil {
		return llm.NewSimClient(profile, seed, tasks)
	}
	return f(profile.Name, seed, tasks)
}

// resolveProfiles looks up every model's profile up front, so a bad name
// fails before any cell runs.
func resolveProfiles(models []string) ([]llm.Profile, error) {
	profiles := make([]llm.Profile, len(models))
	for mi, model := range models {
		p, err := llm.ProfileByName(model)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", model, err)
		}
		profiles[mi] = p
	}
	return profiles, nil
}
