module ocasta/bench

go 1.24

require ocasta v0.0.0

replace ocasta => ../
