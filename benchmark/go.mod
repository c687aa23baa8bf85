module sphinx/benchmark

go 1.22

require sphinx v0.0.0

replace sphinx => ../
