module vmcloud/bench

go 1.24

require vmcloud v0.0.0

replace vmcloud => ../
