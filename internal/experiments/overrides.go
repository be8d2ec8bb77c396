package experiments

import (
	"context"

	"branchscope/internal/chaos"
	"branchscope/internal/core"
	"branchscope/internal/telemetry"
)

// Overrides carries one run's chaos plan, resilient-read policy and
// telemetry set to every covert measurement the run makes, through
// the task context rather than process state. CLI runs, fabric
// workers and campaign service jobs all install them this way (see
// cliutil.Flags.Overrides), so a job runs under exactly its own spec's
// knobs — never another tenant's, never the host CLI's. A nil field
// means "none"; a config field a cell sets itself takes precedence.
type Overrides struct {
	Telemetry *telemetry.Set
	Chaos     *chaos.Plan
	Retry     *core.RetryConfig
}

// overridesKey carries Overrides through contexts.
type overridesKey struct{}

// WithOverrides returns a context carrying ov. A nil ov is valid and
// clears nothing — OverridesFrom simply won't find it.
func WithOverrides(ctx context.Context, ov *Overrides) context.Context {
	if ov == nil {
		return ctx
	}
	return context.WithValue(ctx, overridesKey{}, ov)
}

// OverridesFrom extracts the overrides installed by WithOverrides, nil
// when the context carries none.
func OverridesFrom(ctx context.Context) *Overrides {
	ov, _ := ctx.Value(overridesKey{}).(*Overrides)
	return ov
}
