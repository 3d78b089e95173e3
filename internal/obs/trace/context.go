package trace

import "context"

// Scope is what an instrumented call site needs to record an op: the
// tracer, the worker shard collecting for it, the stage it is inside,
// and the bot under work. It rides the context the same way the
// journal's correlation IDs do, so lower layers trace without new
// parameters.
type Scope struct {
	Tracer *Tracer
	Shard  int
	Stage  string
	BotID  int
	Bot    string
}

type scopeKey struct{}

// ScopeFrom returns the scope carried by ctx (zero-valued when none).
func ScopeFrom(ctx context.Context) Scope {
	s, _ := ctx.Value(scopeKey{}).(Scope)
	return s
}

// ContextWithStage attaches a tracer and stage name to ctx — the entry
// point each pipeline stage calls once. Returns ctx unchanged when the
// tracer is nil. At LevelOff the scope still rides the context, because
// bot-stage spans feed the stage totals at every level.
func ContextWithStage(ctx context.Context, t *Tracer, stage string) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, Scope{Tracer: t, Shard: ControlShard, Stage: stage})
}

// WithWorker stamps the scheduler worker (= shard buffer) collecting
// this context's ops. A context without a tracer passes through
// untouched.
func WithWorker(ctx context.Context, worker int) context.Context {
	s := ScopeFrom(ctx)
	if s.Tracer == nil || s.Shard == worker {
		return ctx
	}
	s.Shard = worker
	return context.WithValue(ctx, scopeKey{}, s)
}

// WithBot stamps the bot under work. A context without a tracer passes
// through untouched.
func WithBot(ctx context.Context, botID int, name string) context.Context {
	s := ScopeFrom(ctx)
	if s.Tracer == nil {
		return ctx
	}
	s.BotID, s.Bot = botID, name
	return context.WithValue(ctx, scopeKey{}, s)
}

// StartStage opens the bot-stage span for the context's scope (one per
// bot per stage — the tracing layer's unit of account) and returns its
// closer. Every level folds the span into the stage totals; level >=
// bots also keeps it as an op.
func StartStage(ctx context.Context) func() {
	end := StartStageNamed(ctx)
	return func() { end("") }
}

// StartStageNamed is StartStage for call sites that only learn the
// bot's display name mid-stage (the collect scrape): the returned
// closer records the span under that name, falling back to the scope's
// name when called with "".
func StartStageNamed(ctx context.Context) func(name string) {
	s := ScopeFrom(ctx)
	t := s.Tracer
	if t == nil {
		return func(string) {}
	}
	start := t.sinceNS()
	return func(name string) {
		if name == "" {
			name = s.Bot
		}
		t.record(Op{
			Shard: int32(s.Shard), Kind: KindStage, Stage: s.Stage, Name: s.Stage,
			BotID: int32(s.BotID), Bot: name,
			StartNS: start, DurNS: t.sinceNS() - start,
		})
	}
}

// StartOp opens a sub-operation span (page_fetch, captcha_solve, ...)
// inside the context's bot-stage span and returns its closer. Recorded
// at level full only.
func StartOp(ctx context.Context, name string) func() {
	return StartOpDetail(ctx, name, "")
}

// StartOpDetail is StartOp with a free-form detail (a ref, a guild
// tag) attached to the recorded op.
func StartOpDetail(ctx context.Context, name, detail string) func() {
	s := ScopeFrom(ctx)
	t := s.Tracer
	if t == nil || t.level < LevelFull {
		return noop
	}
	start := t.sinceNS()
	return func() {
		t.record(Op{
			Shard: int32(s.Shard), Kind: KindOp, Stage: s.Stage, Name: name,
			BotID: int32(s.BotID), Bot: s.Bot, Detail: detail,
			StartNS: start, DurNS: t.sinceNS() - start,
		})
	}
}
