module modellake/bench

go 1.22

require modellake v0.0.0

replace modellake => ../
