package noc

import "vcache/internal/obs"

// Observe registers every configured link's message counter and queueing
// stats with an observability scope, one sub-scope per route (e.g.
// "noc.cu-l2.messages").
func (n *Network) Observe(sc obs.Scope) {
	for r, l := range n.links {
		if l == nil {
			continue
		}
		ls := sc.Scope(Route(r).String())
		ls.Counter("messages", &l.Messages)
		ls.Counter("queue_delay", &l.server.QueueDelay)
	}
}
