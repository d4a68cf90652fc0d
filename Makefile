# Developer entry points. `make lint` runs the exact checks CI's gate jobs
# run, so a clean `make lint && make test` locally predicts a green build.

GO ?= go

.PHONY: all build test race lint fmt vet drange-vet staticcheck govulncheck

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = gofmt + go vet + drange-vet + staticcheck + govulncheck, in the same
# order as .github/workflows/ci.yml. staticcheck and govulncheck are skipped
# with a notice when the binaries are not installed (CI installs them; local
# runs may not have them), so the always-available checks still gate.
lint: fmt vet drange-vet staticcheck govulncheck

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# drange-vet is this repo's own analyzer suite (cmd/drange-vet): lockcheck,
# noalloc, entropyflow, packedpath, seedtaint and atomiccheck.
# It runs under the standard vet driver so findings carry package/position
# info and results (including the interprocedural facts seedtaint and
# atomiccheck exchange) are cached per package like any other vet analysis.
drange-vet:
	$(GO) build -o bin/drange-vet ./cmd/drange-vet
	$(GO) vet -vettool=$(CURDIR)/bin/drange-vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi
