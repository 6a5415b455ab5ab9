// The benchmark is a module of its own so the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it. The module
// path keeps the gbcr/ prefix, which is what lets it import gbcr/internal/...
module gbcr/bench

go 1.22

require gbcr v0.0.0

replace gbcr => ../
