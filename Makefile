# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet lint test race bench fuzz smoke experiments examples clean

all: build vet lint test

build:
	go build ./...

vet:
	go vet ./...

# kklint enforces the engine's written contracts (see CONTRIBUTING.md
# "Contract checking with kklint"): determinism, payload ownership, atomic
# counters, the zero-alloc //kk:hotpath set, //kk:phase discipline,
# goroutine joins, and error handling. One pass covers every package and
# its test variants, and fails on stale waivers too.
lint:
	go run ./cmd/kklint ./...

test:
	go test ./...
	cd benchmarks && go test ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# Short fuzz pass over every fuzz target.
fuzz:
	go test -run=Fuzz -fuzz='^FuzzReadEdgeList$$' -fuzztime=15s ./internal/graph/
	go test -run=Fuzz -fuzz='^FuzzReadBinary$$' -fuzztime=15s ./internal/graph/
	go test -run=Fuzz -fuzz='^FuzzEdgeListRoundTrip$$' -fuzztime=15s ./internal/graph/
	go test -run=Fuzz -fuzz='^FuzzBuild$$' -fuzztime=15s ./internal/graph/
	go test -run=Fuzz -fuzz='^FuzzDecodeWalker$$' -fuzztime=15s ./internal/core/
	go test -run=Fuzz -fuzz='^FuzzReadFrame$$' -fuzztime=15s ./internal/transport/
	go test -run=Fuzz -fuzz='^FuzzReadManifest$$' -fuzztime=15s ./internal/checkpoint/
	go test -run=Fuzz -fuzz='^FuzzRead$$' -fuzztime=15s ./internal/trace/
	go test -run=Fuzz -fuzz='^FuzzReadBinary$$' -fuzztime=15s ./internal/trace/
	go test -run=Fuzz -fuzz='^FuzzApplyDeltas$$' -fuzztime=15s ./internal/dyngraph/
	go test -run=Fuzz -fuzz='^FuzzAliasRow$$' -fuzztime=15s ./internal/sampling/

# End-to-end smoke tests of the three operator surfaces: the kkwalk admin
# server, the kkserve walk service, and the kkcoord/kkrank cluster
# (kill-a-rank failover + determinism diff).
smoke:
	./scripts/admin-smoke.sh
	./scripts/serve-smoke.sh
	./scripts/cluster-smoke.sh

# Regenerate every paper table and figure (see EXPERIMENTS.md).
experiments:
	go run ./cmd/kkbench -exp all

examples:
	go run ./examples/quickstart
	go run ./examples/node2vec
	go run ./examples/metapath
	go run ./examples/pprrank
	go run ./examples/tcpcluster
	go run ./examples/embeddings

clean:
	go clean ./...
