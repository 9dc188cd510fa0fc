# Common targets for the dnslb reproduction.

GO ?= go

.PHONY: all build test race vet fmt bench verify figures clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# testing.B targets: one bench per paper table/figure plus extensions.
bench:
	$(GO) test -bench=. -benchmem ./...

# Executable check of every claim the paper makes, at the paper's scale.
verify:
	$(GO) run ./cmd/dnslb-bench -exp verify

# Regenerate the full evaluation at paper scale into results/.
figures:
	$(GO) run ./cmd/dnslb-bench -exp all -out results/

clean:
	$(GO) clean ./...
