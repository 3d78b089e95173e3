package report

import (
	"fmt"
	"io"

	"repro/internal/loadgen"
)

// GatewayLoad renders one load-generation run as the human-facing
// counterpart of the JSON record `loadgen -out` writes.
func GatewayLoad(w io.Writer, r *loadgen.Result) {
	fmt.Fprintf(w, "GATEWAY LOAD — profile=%s\n", r.Profile)
	fmt.Fprintf(w, "  topology    %d guilds × %d users, %d/%d sessions connected (%d alive at end, %d stalled)\n",
		r.Guilds, r.UsersPerGuild, r.SessionsConnected, r.SessionsTarget, r.SessionsAliveEnd, r.StalledClients)
	fmt.Fprintf(w, "  traffic     %.0f msgs/s published → %.0f events/s delivered (%.1f%% of ideal fan-out) over %.1fs\n",
		r.PublishedPerSec, r.DeliveredPerSec, 100*r.DeliveryRatio, r.DurationMS/1000)
	fmt.Fprintf(w, "  requests    %d ok, %d failed, %d throttled (%d tenant-level)\n",
		r.RequestsOK, r.RequestsFailed, r.Throttled, r.TenantThrottled)
	fmt.Fprintf(w, "  degradation %d shed, %d shed dials, %d events dropped, %d slow-consumer disconnects, %d reaped, %d reconnects, %d faults\n",
		r.Shed, r.ShedDials, r.EventsDropped, r.SlowDisconnects, r.Reaped, r.Reconnects, r.FaultsInjected)
	if r.Shed > 0 {
		fmt.Fprintf(w, "  shed by     %d max_sessions, %d identify_rate, %d tenant_rate\n",
			r.ShedMaxSessions, r.ShedIdentifyRate, r.ShedTenantRate)
	}
}
