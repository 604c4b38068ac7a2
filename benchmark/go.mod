module xivm/benchmark

go 1.22

require xivm v0.0.0

replace xivm => ../
