package main

import (
	"fmt"
	"net/url"
)

// class is one kind of request; latencies are reported per class.
type class int

const (
	clsRelated     class = iota // /v1/related over the non-hot ids: mostly query-cache misses
	clsRelatedHot               // /v1/related over the hot set: embed + cache hit, no scan
	clsKeyword                  // /v1/search, one frequent + one rare card term
	clsPoint                    // GET /v1/models/{id}
	clsMLQL                     // /v1/query, domain filter + similarity rank
	clsIngestBatch              // POST /v1/models/batch
	clsHealthz                  // GET /healthz: the net/http + loopback floor
	numClasses
)

var className = [numClasses]string{"related", "related_hot", "keyword", "point", "mlql", "ingest_batch", "healthz"}

// readMix is the count-weighted mix of the timed read loop, in percent.
var readMix = [...]struct {
	cls class
	pct uint64
}{{clsRelated, 40}, {clsRelatedHot, 10}, {clsKeyword, 30}, {clsPoint, 20}}

// request is one HTTP call the generator makes. Reads are GETs of path;
// ingest batches carry a pre-encoded body.
type request struct {
	cls  class
	path string
	arg  string // the model id or query text inside path, for calls below HTTP
}

// schedule turns (-seed, stream, index) into requests. It is a pure function
// of its fields and its arguments: no state advances, so two clients, the
// verify pass and the traced pass each draw their own stream without
// touching each other's, and equal seeds give byte-equal schedules.
type schedule struct {
	seed uint64
	hot  int // ids [0,hot) are the hot set
	pop  *population
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// 64-bit mixer, enough to turn a counter into independent-looking draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the j-th random word of request i on a stream.
func (s *schedule) draw(stream, i, j int) uint64 {
	return splitmix64(splitmix64(s.seed^uint64(stream)<<40) ^ uint64(i)<<8 ^ uint64(j))
}

// read is the i-th request of the timed read mix on a stream; models is how
// many models the lake holds when the request is sent.
func (s *schedule) read(stream, i, models int) request {
	r := s.draw(stream, i, 0) % 100
	for _, m := range readMix {
		if r < m.pct {
			return s.of(m.cls, stream, i, models)
		}
		r -= m.pct
	}
	panic("readMix does not sum to 100")
}

// of is the i-th request of one class on a stream.
func (s *schedule) of(cls class, stream, i, models int) request {
	r := s.draw(stream, i, 1)
	cold := modelID(s.hot + int(r%uint64(models-s.hot)))
	switch cls {
	case clsRelated:
		// Walk the non-hot ids in order, even streams the lower half and odd
		// streams the upper, so the two clients never ask for each other's
		// ids. By the time an id comes round again more than the query
		// cache's 1024 entries have passed through, so every request is a
		// miss and the class measures the scan alone.
		half := (models - s.hot) / 2
		id := modelID(s.hot + (stream%2)*half + int((s.draw(stream, 0, 2)+uint64(i))%uint64(half)))
		return request{cls, "/v1/related?k=10&id=" + id, id}
	case clsRelatedHot:
		id := modelID(int(r % uint64(s.hot)))
		return request{cls, "/v1/related?k=10&id=" + id, id}
	case clsKeyword:
		q := s.pop.freq[r%uint64(len(s.pop.freq))] + " " + s.pop.rare[(r>>20)%uint64(len(s.pop.rare))]
		return request{cls, "/v1/search?k=10&q=" + url.QueryEscape(q), q}
	case clsPoint:
		id := modelID(int(r % uint64(models)))
		return request{cls, "/v1/models/" + id, id}
	case clsMLQL:
		q := fmt.Sprintf("FIND MODELS WHERE DOMAIN = '%s' RANK BY SIMILARITY TO MODEL '%s' LIMIT 10",
			s.pop.domains[(r>>20)%uint64(len(s.pop.domains))], cold)
		return request{cls, "/v1/query?q=" + url.QueryEscape(q), q}
	case clsHealthz:
		return request{cls, "/healthz", ""}
	}
	panic("no schedule for class " + className[cls])
}
