package sim

import "elink/internal/obs"

// netObs is the event-driven executor's metrics sink: it mirrors the
// per-kind transmission counters into a registry. Round counts are not
// traced here — a run's end time (Stats.Time, and elink_run_rounds for
// ELink) is its synchronous round count under UnitDelay.
type netObs struct {
	reg   *obs.Registry
	scope string

	dropped *obs.Counter
	kinds   map[string]*obs.Counter // cached sim_messages_total handles
}

// Instrument mirrors the network's message accounting into reg (family
// sim_messages_total{scope,kind}, sim_dropped_total{scope}). scope labels
// the run ("elink", "forest", ...). A nil reg is a no-op. Call before
// Run/Start.
func (n *Network) Instrument(reg *obs.Registry, scope string) {
	if reg == nil {
		return
	}
	reg.Help("sim_messages_total", "Radio transmissions by run scope and message kind.")
	reg.Help("sim_dropped_total", "Transmissions lost to injected faults, by run scope.")
	n.obs = &netObs{
		reg:     reg,
		scope:   scope,
		dropped: reg.Counter("sim_dropped_total", "scope", scope),
		kinds:   make(map[string]*obs.Counter),
	}
}

// count mirrors one charge of cost transmissions of the given kind.
func (o *netObs) count(kind string, cost int64) {
	ctr := o.kinds[kind]
	if ctr == nil {
		ctr = o.reg.Counter("sim_messages_total", "scope", o.scope, "kind", kind)
		o.kinds[kind] = ctr
	}
	ctr.Add(cost)
}

// droppedInc counts one fault-injected loss (nil-safe: the loss path
// calls it unconditionally).
func (o *netObs) droppedInc() {
	if o == nil {
		return
	}
	o.dropped.Inc()
}
