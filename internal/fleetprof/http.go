package fleetprof

import "net/http"

// StatuszHandler serves the /statusz snapshot over HTTP — the same
// plain-text rendering Statusz writes — for the wsc-propeller
// -statusz-addr debug endpoint. Safe to serve while ingestion is running;
// mid-run snapshots are momentary.
func (s *Service) StatuszHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.Statusz(w)
	})
}
