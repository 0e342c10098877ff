module dcdb/benchmark

go 1.22

require dcdb v0.0.0

replace dcdb => ../
