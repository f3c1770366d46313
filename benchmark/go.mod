module fun3d/benchmark

go 1.22

require fun3d v0.0.0

replace fun3d => ../
