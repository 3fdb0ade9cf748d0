module sdssort/bench

go 1.22

require sdssort v0.0.0

replace sdssort => ../
