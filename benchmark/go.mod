module propeller/benchmark

go 1.22

require propeller v0.0.0

replace propeller => ../
