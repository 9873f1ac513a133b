module knightking/benchmarks

go 1.22

require knightking v0.0.0

replace knightking => ../
