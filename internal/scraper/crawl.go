package scraper

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/htmlparse"
	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/permissions"
)

// InvalidReason classifies why a bot's permissions could not be read —
// the paper's three causes for the 26% invalid share.
type InvalidReason string

// Invalid reasons.
const (
	InvalidNone        InvalidReason = ""
	InvalidBrokenLink  InvalidReason = "invalid-invite-link"
	InvalidRemoved     InvalidReason = "removed"
	InvalidTimeout     InvalidReason = "slow-redirect-timeout"
	InvalidMissingLink InvalidReason = "no-invite-link"
	InvalidBadValue    InvalidReason = "undecodable-permissions"
)

// Record is the scraper's output for one listed bot: the full attribute
// set §4.2 extracts.
type Record struct {
	ID          int
	Name        string
	Tags        []string
	Description string
	GuildCount  int
	Votes       int
	Prefix      string
	Commands    []string
	Developers  []string

	HasWebsite bool
	GitHubURL  string

	PermsValid    bool
	Perms         permissions.Permission
	InvalidReason InvalidReason

	PolicyLinkFound bool
	PolicyLinkDead  bool
	PolicyText      string

	// Incomplete marks a record whose detail page never produced every
	// expected element (e.g. the invite link did not render after
	// exhausting retries, or the policy fetch kept failing). The bot was
	// scraped, but downstream stages should not treat absences in this
	// record as evidence.
	Incomplete bool
}

// Config tunes a crawl.
type Config struct {
	// Retries re-attempts detail pages whose expected elements are
	// missing (§3 iv: react to NoSuchElementException). Default 2.
	Retries int
	// MaxPages bounds listing pagination; 0 means all pages.
	MaxPages int
	// Strict restores the pre-quarantine behavior: the first failed bot
	// aborts the whole crawl with an error instead of being skipped.
	Strict bool
	// Resume, when set, replays settled outcomes from a checkpoint: the
	// recorded listing is reused instead of re-paginating, and settled
	// bots are skipped idempotently (journaled as work_skipped) with
	// their prior outcome copied into the result.
	Resume *ResumeState
	// OnListed observes the discovered listing before per-bot fetches
	// begin, so a checkpoint can persist the work plan itself.
	OnListed func(ids []int)
}

// ResumeState carries a checkpoint's settled crawl outcomes back into
// a resumed run.
type ResumeState struct {
	// IDs is the listing discovered by the interrupted run; when
	// non-empty the crawl skips pagination entirely and reuses it.
	IDs []int
	// Records maps bot ID → settled record.
	Records map[int]*Record
	// Quarantined maps bot ID → the error that quarantined it.
	Quarantined map[int]error
}

// Crawler is the crawl, one bot at a time: List discovers the work plan
// and Settle carries one bot through scrape → quarantine → journal. The
// caller's scheduler, not this package, decides which bot runs when;
// Settle is safe for concurrent use.
type Crawler struct {
	Client *Client
	Cfg    Config
}

// SettledBot is one bot's crawl outcome.
type SettledBot struct {
	// Rec is the scraped record, nil when the bot was quarantined.
	Rec *Record
	// Quarantine is the error that set the bot aside, nil on success.
	Quarantine error
	// Resumed marks an outcome replayed from Cfg.Resume rather than
	// freshly scraped — already persisted, so not re-checkpointed.
	Resumed bool
}

// NewCrawler builds a Crawler with cfg's retry default applied.
func NewCrawler(c *Client, cfg Config) *Crawler {
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	return &Crawler{Client: c, Cfg: cfg}
}

// List returns the crawl's work plan: the resumed listing when the
// checkpoint recorded one, otherwise a fresh pagination. listErr
// carries a lenient-mode pagination failure (the listing is partial);
// err is fatal (strict mode or cancellation).
func (cr *Crawler) List(ctx context.Context) (ids []int, listErr, err error) {
	if r := cr.Cfg.Resume; r != nil && len(r.IDs) > 0 {
		// The interrupted run already paid for pagination; reuse its
		// listing so the resumed run sees the identical work plan.
		ids = r.IDs
	} else {
		ids, listErr = ListBotIDsContext(ctx, cr.Client, cr.Cfg.MaxPages)
		if listErr != nil {
			if cr.Cfg.Strict || errors.Is(listErr, context.Canceled) || errors.Is(listErr, context.DeadlineExceeded) {
				return nil, nil, listErr
			}
		}
	}
	// A partial listing (pagination died mid-walk) is not a durable
	// work plan: only a complete discovery is reported, so a resumed
	// run re-paginates rather than inheriting the truncation.
	if cr.Cfg.OnListed != nil && listErr == nil {
		cr.Cfg.OnListed(ids)
	}
	return ids, listErr, nil
}

// resumed replays a checkpointed outcome for id when one exists.
// ok=false means the bot is fresh work; err is fatal (a strict run hit
// a checkpointed quarantine).
func (cr *Crawler) resumed(ctx context.Context, id int) (out SettledBot, ok bool, err error) {
	r := cr.Cfg.Resume
	if r == nil {
		return SettledBot{}, false, nil
	}
	if rec, found := r.Records[id]; found {
		journal.Emit(journal.WithBot(ctx, id, rec.Name), "scraper",
			journal.KindWorkSkipped, map[string]any{
				"stage":  "collect",
				"reason": "settled in checkpoint",
			})
		return SettledBot{Rec: rec, Resumed: true}, true, nil
	}
	if qerr, found := r.Quarantined[id]; found {
		if cr.Cfg.Strict {
			return SettledBot{}, false, fmt.Errorf("bot %d: %w", id, qerr)
		}
		journal.Emit(journal.WithBot(ctx, id, ""), "scraper",
			journal.KindWorkSkipped, map[string]any{
				"stage":  "collect",
				"reason": "quarantined in checkpoint",
			})
		return SettledBot{Quarantine: qerr, Resumed: true}, true, nil
	}
	return SettledBot{}, false, nil
}

// Settle carries one listed bot to its outcome: a checkpointed replay,
// a scraped record, or a quarantine. The returned error is fatal —
// context cancellation, or any scrape failure under Cfg.Strict.
func (cr *Crawler) Settle(ctx context.Context, id int) (SettledBot, error) {
	if out, ok, err := cr.resumed(ctx, id); err != nil || ok {
		return out, err
	}
	botCtx := journal.WithBot(ctx, id, "")
	botCtx = trace.WithBot(botCtx, id, "")
	// The bot's display name is only known once the scrape succeeds;
	// the named closer back-fills it onto the collect span.
	botName := ""
	endStage := trace.StartStageNamed(botCtx)
	defer func() { endStage(botName) }()
	rec, err := ScrapeBotContext(botCtx, cr.Client, id, cr.Cfg.Retries)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return SettledBot{}, err
		case cr.Cfg.Strict:
			return SettledBot{}, fmt.Errorf("bot %d: %w", id, err)
		}
		cr.Client.cQuarantined.Inc()
		journal.Emit(botCtx, "scraper", journal.KindBotQuarantined, map[string]any{
			"error": err.Error(),
		})
		return SettledBot{Quarantine: err}, nil
	}
	botName = rec.Name
	journal.Emit(journal.WithBot(botCtx, id, rec.Name), "scraper",
		journal.KindBotDiscovered, map[string]any{
			"perms_valid":    rec.PermsValid,
			"invalid_reason": string(rec.InvalidReason),
			"votes":          rec.Votes,
			"has_policy":     rec.PolicyLinkFound && !rec.PolicyLinkDead,
		})
	return SettledBot{Rec: rec}, nil
}

// ListBotIDsContext walks the listing's pages and returns every bot ID
// in listing order. On a page-fetch failure it returns the IDs
// discovered so far alongside the error, so a degradation-aware caller
// can crawl the partial listing.
func ListBotIDsContext(ctx context.Context, c *Client, maxPages int) ([]int, error) {
	var ids []int
	for page := 1; ; page++ {
		if maxPages > 0 && page > maxPages {
			break
		}
		doc, err := getPage(ctx, c, fmt.Sprintf("/bots?page=%d", page))
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return ids, err
			}
			return ids, fmt.Errorf("scraper: list page %d: %w", page, err)
		}
		cards := doc.Select("li.bot-card")
		if len(cards) == 0 {
			break
		}
		for _, card := range cards {
			raw, _ := card.Attr("data-bot-id")
			id, err := strconv.Atoi(raw)
			if err != nil {
				continue // malformed card; skip like a robust crawler
			}
			ids = append(ids, id)
		}
		if doc.ByID("next-page") == nil {
			break
		}
	}
	return ids, nil
}

// ScrapeBotContext fetches one bot's detail page, its invite consent
// page, and its website policy, assembling the full record.
func ScrapeBotContext(ctx context.Context, c *Client, id, retries int) (*Record, error) {
	var doc *htmlparse.Node
	var inviteHref string
	var err error
	// Detail pages are occasionally flaky: the invite element vanishes
	// on a render. Retry, as §3 prescribes.
	for attempt := 0; attempt <= retries; attempt++ {
		doc, err = getPage(ctx, c, fmt.Sprintf("/bot/%d", id))
		if err != nil {
			return nil, err
		}
		if a := doc.SelectFirst("a.invite"); a != nil {
			inviteHref, _ = a.Attr("href")
			break
		}
		if attempt < retries {
			c.countRetry()
		}
	}

	rec := &Record{ID: id}
	if inviteHref == "" {
		// The invite element never rendered across every retry. The
		// record is still assembled, but marked: a permission-less record
		// here reflects our failure to observe, not the bot's listing.
		rec.Incomplete = true
	}
	if n := doc.SelectFirst("h1.bot-name"); n != nil {
		rec.Name = n.Text()
	}
	if n := doc.SelectFirst("p.description"); n != nil {
		rec.Description = n.Text()
	}
	if n := doc.SelectFirst("span.guild-count"); n != nil {
		rec.GuildCount, _ = strconv.Atoi(n.Text())
	}
	if n := doc.SelectFirst("span.vote-count"); n != nil {
		rec.Votes, _ = strconv.Atoi(n.Text())
	}
	if n := doc.SelectFirst("span.prefix"); n != nil {
		rec.Prefix = n.Text()
	}
	for _, n := range doc.Select("li.tag") {
		rec.Tags = append(rec.Tags, n.Text())
	}
	for _, n := range doc.Select("li.developer") {
		rec.Developers = append(rec.Developers, n.Text())
	}
	for _, n := range doc.Select("li.command") {
		rec.Commands = append(rec.Commands, n.Text())
	}
	if n := doc.SelectFirst("a.github"); n != nil {
		rec.GitHubURL, _ = n.Attr("href")
	}
	rec.HasWebsite = doc.SelectFirst("a.website") != nil

	if err := scrapeInvite(ctx, c, rec, inviteHref); err != nil {
		return nil, err
	}
	if rec.HasWebsite {
		if err := scrapePolicy(ctx, c, rec, id); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// getPage fetches a listing, detail, site or policy page, repeating the
// fetch once after a timeout. The site delays only invite redirects, so
// a timed-out page means this process stalled, not that the page is
// slow; the repeat counts in Stats.Retries. Without it, one stalled
// listing page would end pagination and truncate the crawl.
func getPage(ctx context.Context, c *Client, ref string) (*htmlparse.Node, error) {
	doc, err := c.GetContext(ctx, ref)
	if errors.Is(err, ErrTimeout) {
		c.countRetry()
		doc, err = c.GetContext(ctx, ref)
	}
	return doc, err
}

// scrapeInvite resolves the consent page and decodes the permission
// value, mapping each failure mode to its invalid reason. Only context
// cancellation is returned as an error; site-side failures become
// invalid reasons.
func scrapeInvite(ctx context.Context, c *Client, rec *Record, href string) error {
	if href == "" {
		rec.InvalidReason = InvalidMissingLink
		return nil
	}
	endOp := trace.StartOpDetail(ctx, "invite_redirect", href)
	doc, err := c.GetContext(ctx, href)
	endOp()
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return err
	case isInfraErr(err):
		// The endpoint itself was unreachable after retries — our
		// failure to observe, not a broken invite. Surface it so the
		// caller can quarantine instead of mislabeling the bot invalid.
		return err
	case err == nil:
	case errors.Is(err, ErrTimeout):
		rec.InvalidReason = InvalidTimeout
		return nil
	case errors.Is(err, ErrGone):
		// 410 means removed; 404/400 means a mangled invite URL.
		if strings.Contains(err.Error(), "(410)") {
			rec.InvalidReason = InvalidRemoved
		} else {
			rec.InvalidReason = InvalidBrokenLink
		}
		return nil
	default:
		rec.InvalidReason = InvalidBrokenLink
		return nil
	}
	val := doc.ByID("perm-value")
	if val == nil {
		rec.InvalidReason = InvalidBadValue
		return nil
	}
	perms, err := permissions.ParseValue(val.Text())
	if err != nil || !perms.Defined() {
		rec.InvalidReason = InvalidBadValue
		return nil
	}
	rec.Perms = perms
	rec.PermsValid = true
	return nil
}

// scrapePolicy visits the bot's website, follows its privacy-policy
// link when present, and captures the policy text. Only context
// cancellation is returned as an error; an infrastructure failure
// (retries exhausted) marks the record Incomplete rather than letting
// the absence of a policy read as a finding.
func scrapePolicy(ctx context.Context, c *Client, rec *Record, id int) error {
	site, err := getPage(ctx, c, fmt.Sprintf("/site/%d", id))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if isInfraErr(err) {
			rec.Incomplete = true
		}
		return nil // website advertised but unreachable: no policy found
	}
	link := site.ByID("privacy-link")
	if link == nil {
		return nil
	}
	rec.PolicyLinkFound = true
	href, _ := link.Attr("href")
	policy, err := getPage(ctx, c, href)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if isInfraErr(err) {
			rec.Incomplete = true
		}
		rec.PolicyLinkDead = true
		return nil
	}
	if pre := policy.SelectFirst("#privacy-policy pre"); pre != nil {
		rec.PolicyText = pre.Text()
	} else if div := policy.ByID("privacy-policy"); div != nil {
		rec.PolicyText = div.Text()
	} else {
		rec.PolicyLinkDead = true
	}
	return nil
}

// PermissionDistribution tallies, over the valid records, what fraction
// requests each permission — the Figure 3 series, descending.
type PermissionShare struct {
	Perm  permissions.Permission
	Count int
	Pct   float64
}

// PermissionDistribution computes Figure 3 from scraped records.
func PermissionDistribution(records []*Record) []PermissionShare {
	valid := 0
	counts := make(map[permissions.Permission]int)
	for _, r := range records {
		if r == nil || !r.PermsValid {
			continue
		}
		valid++
		for _, bit := range r.Perms.Split() {
			counts[bit]++
		}
	}
	out := make([]PermissionShare, 0, len(counts))
	for p, n := range counts {
		out = append(out, PermissionShare{Perm: p, Count: n, Pct: 100 * float64(n) / float64(valid)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Perm < out[j].Perm
	})
	return out
}

// resolveRef joins a possibly-relative href against a base — exported
// via helper for the code-analysis stage, which receives host-relative
// GitHub links.
func resolveRef(base *url.URL, ref string) string {
	u, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return base.ResolveReference(u).String()
}
